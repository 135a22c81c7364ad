import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcrf import (
    DgpParams,
    Network,
    assign_treatment,
    build_design,
    dgp_scenario,
    parse_model_spec,
    simulate_frame,
    true_aggregate_effects,
)
from netcrf.dgp import _outcome_mean, draw_frame, frame_cells, scenario_cell_sums
from netcrf.graph import treated_neighbor_counts
from conftest import (cell_statistics, make_frame, potential_outcome, potential_outcome_grid,
                      unit_noise)


class TestAssignTreatment:
    def test_deterministic(self):
        a = assign_treatment(4, 0.5, 123)
        b = assign_treatment(4, 0.5, 123)
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        # binomial-moment oracle: mean of 1e5 Bernoulli(0.5) draws is within
        # 0.005 of 0.5 (> 3 standard errors)
        d = assign_treatment(100_000, 0.5, 7)
        assert abs(d.mean() - 0.5) < 0.005

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_degenerate_probability_rejected(self, p):
        with pytest.raises(ValueError):
            assign_treatment(10, p, 0)


class TestCountTreatedNeighbors:
    def test_star_center(self):
        # center is unit 0 with leaves 1..3; two treated leaves
        edges = np.array([[0, 1], [0, 2], [0, 3]])
        net = Network(n=4, edges=edges)
        t = treated_neighbor_counts(net, np.array([0, 1, 1, 0]))
        assert t[0] == 2
        assert list(t[1:]) == [0, 0, 0]

    def test_all_controls(self, network_1000):
        t = treated_neighbor_counts(network_1000, np.zeros(1000, dtype=int))
        assert not t.any()

    def test_matches_double_loop_oracle(self):
        from netcrf import build_geometric_network, generate_positions

        net = build_geometric_network(generate_positions(100, 21), 0.15)
        d = assign_treatment(100, 0.5, 22)
        t = treated_neighbor_counts(net, d)
        neighbor_sets = [set() for _ in range(net.n)]
        for a, b in net.edges:
            neighbor_sets[a].add(b)
            neighbor_sets[b].add(a)
        expected = [sum(d[j] for j in neighbor_sets[i]) for i in range(net.n)]
        assert list(t) == expected
        assert np.all(t <= net.degree)

    def test_length_mismatch_rejected(self, network_1000):
        with pytest.raises(ValueError):
            treated_neighbor_counts(network_1000, np.zeros(5, dtype=int))


def zero_noise_outcomes(network, params, seed, f, d, t):
    """The simulated zero-noise outcomes of the units at (f, d, t)."""
    frame = simulate_frame(network, replace(params, noise_sd=0.0), seed)
    at = (frame.f == f) & (frame.d == d) & (frame.t == t)
    assert at.any(), "no unit at the requested (f, d, t)"
    return frame.y[at]


class TestPotentialOutcome:
    def test_scenario_i_hand_evaluation(self, network_1000):
        # beta0 + 3*beta_f + beta_d = 0 - 6 + 2
        y = zero_noise_outcomes(network_1000, dgp_scenario("i"), 1, f=3, d=1, t=0)
        assert y == pytest.approx(-4.0)
        assert potential_outcome(dgp_scenario("i"), f=3, d=1, t=0) == pytest.approx(-4.0)

    def test_scenario_iv_hand_evaluation(self, network_1000):
        # -4 + (2 + 0.4 ln 2) + (1.2 + 0.4 ln 2) + (1.2 + 0.4 ln 2)
        expected = 0.4 + 1.2 * math.log(2.0)
        y = zero_noise_outcomes(network_1000, dgp_scenario("iv"), 1, f=2, d=1, t=1)
        assert y == pytest.approx(expected, abs=1e-12)
        assert y == pytest.approx(1.2318, abs=1e-4)
        assert potential_outcome(dgp_scenario("iv"), f=2, d=1, t=1) == pytest.approx(expected)

    def test_additive_noise(self, network_1000):
        # the noise scales one standard-normal draw per unit
        params = dgp_scenario("iii")
        y = [simulate_frame(network_1000, replace(params, noise_sd=s), 5).y for s in (0, 1, 5)]
        assert y[2] - y[0] == pytest.approx(5.0 * (y[1] - y[0]), abs=1e-12)
        assert np.std(y[1] - y[0]) == pytest.approx(1.0, abs=0.1)

    def test_invalid_arguments(self):
        # a frame holds only (f, d, t) where the outcome is defined
        for f, d, t in ((0, 0, 0), (2, 1, 3), (2, 2, 1)):
            with pytest.raises(ValueError):
                make_frame([0.0], [d], [t], [f])


class TestDgpScenarios:
    def test_shared_base_values(self):
        for sid in ("i", "ii", "iii", "iv"):
            params = dgp_scenario(sid)
            assert (params.beta0, params.beta_f, params.beta_d) == (0.0, -2.0, 2.0)
            assert params.noise_sd == 1.0
            assert params.p_treat == 0.5

    def test_scenario_i(self):
        params = dgp_scenario("i")
        assert params.beta_tau == 0.2
        assert params.beta_f2 == params.beta_r == params.beta_dtau == params.beta_dr == 0.0

    def test_scenario_ii(self):
        params = dgp_scenario("ii")
        assert params.beta_r == 2.0
        assert params.beta_tau == 0.0

    def test_scenario_iii(self):
        params = dgp_scenario("iii")
        assert params.beta_f2 == 0.0
        assert (params.beta_tau, params.beta_r, params.beta_dtau, params.beta_dr) == (0.2, 2.0, 0.2, 2.0)

    def test_scenario_iv_all_nonzero(self):
        params = dgp_scenario("iv")
        assert params.beta_f2 == 0.4
        assert all(v != 0 for v in (params.beta_tau, params.beta_r, params.beta_dtau, params.beta_dr))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            dgp_scenario("v")

    def test_overrides(self):
        params = dgp_scenario("iv", noise_sd=0.0, p_treat=0.3)
        assert params.noise_sd == 0.0
        assert params.p_treat == 0.3


class TestSimulateFrame:
    def test_isolated_network_yields_empty_frame(self):
        net = Network(n=5, edges=np.empty((0, 2), dtype=int))
        frame = simulate_frame(net, dgp_scenario("i"), 3)
        assert frame.n_selected == 0
        assert frame.n_total == 5

    def test_realized_outcome_equals_grid_value(self, network_1000):
        frame = simulate_frame(network_1000, dgp_scenario("iv"), 5)
        grid = potential_outcome_grid(network_1000, dgp_scenario("iv"), 5)
        assert len(grid) == frame.n_selected
        for i in range(frame.n_selected):
            assert grid[i].shape == (2, frame.f[i] + 1)
            assert frame.y[i] == pytest.approx(grid[i][frame.d[i], frame.t[i]], abs=1e-12)

    def test_consistency_with_potential_outcome(self, network_1000):
        params = dgp_scenario("iii")
        frame = simulate_frame(network_1000, params, 8)
        u = unit_noise(network_1000, params, 8)[frame.ids]
        for i in range(0, frame.n_selected, 37):
            expected = potential_outcome(params, int(frame.f[i]), int(frame.d[i]), int(frame.t[i]), u[i])
            assert frame.y[i] == pytest.approx(expected, abs=1e-12)

    def test_selection_matches_degrees(self, network_2000):
        frame = simulate_frame(network_2000, dgp_scenario("iv"), 2)
        assert frame.n_selected == int((network_2000.degree > 0).sum())
        assert np.array_equal(frame.f, network_2000.degree[network_2000.degree > 0])
        assert np.all(frame.t <= frame.f)

    def test_deterministic(self, network_1000):
        a = simulate_frame(network_1000, dgp_scenario("ii"), 99)
        b = simulate_frame(network_1000, dgp_scenario("ii"), 99)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.d, b.d)

    def test_zero_noise_is_exact_mean(self, network_1000):
        params = dgp_scenario("i", noise_sd=0.0)
        frame = simulate_frame(network_1000, params, 4)
        for i in range(0, frame.n_selected, 53):
            expected = potential_outcome(params, int(frame.f[i]), int(frame.d[i]), int(frame.t[i]))
            assert frame.y[i] == pytest.approx(expected, abs=1e-12)


class TestSimulateFrames:
    """One frame drawn for several scenarios (draw_frame), whose outcome is the
    shared noise, and each scenario's cell sums from it (scenario_cell_sums)."""

    GRIDS = (
        (dgp_scenario("i"), dgp_scenario("iv"), dgp_scenario("ii", noise_sd=2.5)),
        (dgp_scenario("iii", p_treat=0.3), dgp_scenario("iv", p_treat=0.3, noise_sd=0.0)),
    )

    def test_each_frame_equals_simulate_frame_bitwise(self, network_1000):
        # each scenario's outcomes mu + sigma z are simulate_frame's bit for
        # bit, and its cell sums and within-cell squares are bincounts of them
        # to roundoff
        for scenarios in self.GRIDS:
            draw = draw_frame(network_1000, scenarios[0].p_treat, 31)
            stats = scenario_cell_sums(draw, scenarios)
            of_unit, n_cells = draw.cells.of_unit, draw.cells.counts.size
            assert stats.values.shape == stats.within.shape == (n_cells, len(scenarios))
            for column, params in enumerate(scenarios):
                alone = simulate_frame(network_1000, params, 31)
                y = _outcome_mean(params, draw.f, draw.d, draw.t) + draw.y * params.noise_sd
                assert y.dtype == alone.y.dtype and y.tobytes() == alone.y.tobytes()
                for name in ("d", "t", "f", "ids"):
                    got, want = getattr(draw, name), getattr(alone, name)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
                assert draw.n_total == alone.n_total
                sums = np.bincount(of_unit, weights=alone.y, minlength=n_cells)
                deviations = alone.y - (sums / draw.cells.counts)[of_unit]
                squares = np.bincount(of_unit, weights=deviations ** 2, minlength=n_cells)
                for got, want in ((stats.values[:, column], sums),
                                  (stats.within[:, column], squares)):
                    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    def test_frames_with_equal_p_treat_share_units(self, network_1000):
        # p_treat fixes d and t, so scenarios with another p_treat need their own
        # frame (a study rejects such a grid; see test_montecarlo)
        low, high = (draw_frame(network_1000, grid[0].p_treat, 31) for grid in self.GRIDS)
        assert not np.array_equal(low.d, high.d)
        assert np.array_equal(low.f, high.f)
        assert np.array_equal(low.y, high.y)

    def test_grid_noise_matches_frame(self, network_1000):
        params = self.GRIDS[0][2]
        frame = simulate_frame(network_1000, params, 31)
        grid = potential_outcome_grid(network_1000, params, 31)
        for i in range(0, frame.n_selected, 41):
            assert frame.y[i] == pytest.approx(grid[i][frame.d[i], frame.t[i]], abs=1e-12)


@st.composite
def params_and_units(draw):
    """Outcome parameters, and per unit (d, t, f) with f >= 1 and t <= f."""
    coefficient = st.floats(-50.0, 50.0, allow_nan=False)
    params = DgpParams(**{name: draw(coefficient) for name in (
        "beta0", "beta_f", "beta_d", "beta_f2", "beta_tau", "beta_r", "beta_dtau", "beta_dr")})
    n = draw(st.integers(1, 60))
    f = np.array(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)))
    t = np.array([draw(st.integers(0, fi)) for fi in f.tolist()])
    d = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return params, d, t, f


class TestOutcomeMeanPerCell:
    @settings(deadline=None)
    @given(params_and_units())
    def test_gathered_cell_means_equal_unit_means_bitwise(self, case):
        # the frame evaluates the mean once per occupied (d, t, f) cell
        params, d, t, f = case
        cells = frame_cells(d, t, f)
        gathered = _outcome_mean(params, cells.f, cells.d, cells.t)[cells.of_unit]
        assert gathered.tobytes() == _outcome_mean(params, f, d, t).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_frame_outcome_equals_unit_mean_plus_noise_bitwise(self, network_2000, seed):
        for params in (dgp_scenario(s) for s in ("i", "ii", "iii", "iv")):
            frame = simulate_frame(network_2000, params, seed)
            u = unit_noise(network_2000, params, seed)[frame.ids]
            want = _outcome_mean(params, frame.f, frame.d, frame.t) + u
            assert frame.y.tobytes() == want.tobytes()

    def test_frame_cells_are_the_cells_of_its_units(self, network_2000):
        frame = simulate_frame(network_2000, dgp_scenario("iv"), 9)
        want = frame_cells(frame.d, frame.t, frame.f)
        for name in ("d", "t", "f", "counts", "of_unit"):
            assert np.array_equal(getattr(frame.cells, name), getattr(want, name)), name


class TestDecompositionIdentity:
    @pytest.mark.parametrize("scenario", ["i", "ii", "iii", "iv"])
    def test_exact_per_unit(self, scenario, network_1000):
        # y = y00 + (y10 - y00) d + sum_t 1[T=t] (y0t - y00 + (y1t - y10 - y0t + y00) d)
        frame = simulate_frame(network_1000, dgp_scenario(scenario), 31)
        grid = potential_outcome_grid(network_1000, dgp_scenario(scenario), 31)
        worst = 0.0
        for i in range(frame.n_selected):
            g = grid[i]
            t_i = int(frame.t[i])
            d_i = int(frame.d[i])
            interaction = g[1, t_i] - g[1, 0] - g[0, t_i] + g[0, 0]
            value = g[0, 0] + (g[1, 0] - g[0, 0]) * d_i
            if t_i >= 1:
                value += g[0, t_i] - g[0, 0] + interaction * d_i
            worst = max(worst, abs(value - frame.y[i]))
        assert worst < 1e-10

    def test_interaction_is_analytic_in_t(self, network_1000):
        # with the shared noise draw, y1t - y10 - y0t + y00 telescopes to
        # (beta_dtau + beta_dr/f + beta_f2 ln f) * t for every unit
        for scenario in ("ii", "iii", "iv"):
            params = dgp_scenario(scenario)
            frame = simulate_frame(network_1000, params, 13)
            grid = potential_outcome_grid(network_1000, params, 13)
            for i in range(0, frame.n_selected, 41):
                g = grid[i]
                f_i = float(frame.f[i])
                slope = params.beta_dtau + params.beta_dr / f_i + params.beta_f2 * math.log(f_i)
                for t in range(1, int(frame.f[i]) + 1):
                    observed = g[1, t] - g[1, 0] - g[0, t] + g[0, 0]
                    assert observed == pytest.approx(slope * t, abs=1e-10)


class TestTrueAggregateEffects:
    def test_scenario_i_exact(self):
        effects = true_aggregate_effects(dgp_scenario("i"), [1, 2, 5, 9])
        assert effects.direct == pytest.approx(2.0)
        assert effects.network == pytest.approx(0.2)
        assert effects.interaction == pytest.approx(0.0)

    def test_reduces_to_constants_without_heterogeneity(self):
        params = DgpParams(beta0=1.0, beta_f=-3.0, beta_d=1.7, beta_tau=0.9)
        for f_values in ([1], [2, 2, 2], list(range(1, 30))):
            effects = true_aggregate_effects(params, f_values)
            assert effects.direct == pytest.approx(1.7)
            assert effects.network == pytest.approx(0.9)
            assert effects.interaction == pytest.approx(0.0)

    def test_matches_potential_outcome_differences(self):
        # independent oracle: evaluate the outcome equation at u=0 and take
        # the defining contrasts unit by unit
        rng = np.random.default_rng(3)
        for _ in range(20):
            params = DgpParams(
                beta0=rng.normal(), beta_f=rng.normal(), beta_d=rng.normal(),
                beta_f2=rng.normal(), beta_tau=rng.normal(), beta_r=rng.normal(),
                beta_dtau=rng.normal(), beta_dr=rng.normal(),
            )
            f_values = rng.integers(1, 12, size=25)
            direct, network, interaction = [], [], []
            for f in f_values:
                y00 = potential_outcome(params, int(f), 0, 0)
                y10 = potential_outcome(params, int(f), 1, 0)
                y01 = potential_outcome(params, int(f), 0, 1)
                y11 = potential_outcome(params, int(f), 1, 1)
                direct.append(y10 - y00)
                network.append(y01 - y00)
                interaction.append(y11 - y10 - y01 + y00)
            effects = true_aggregate_effects(params, f_values)
            assert effects.direct == pytest.approx(np.mean(direct), abs=1e-10)
            assert effects.network == pytest.approx(np.mean(network), abs=1e-10)
            assert effects.interaction == pytest.approx(np.mean(interaction), abs=1e-10)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(1, 15), min_size=1, max_size=400),
           st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6))
    def test_equals_the_unit_by_unit_mean(self, f_values, betas):
        # evaluated per distinct friend count and weighted by its
        # multiplicity: the unit-by-unit mean, summed in another order
        beta_d, beta_f2, beta_tau, beta_r, beta_dtau, beta_dr = betas
        params = DgpParams(beta_d=beta_d, beta_f2=beta_f2, beta_tau=beta_tau, beta_r=beta_r,
                           beta_dtau=beta_dtau, beta_dr=beta_dr)
        f = np.array(f_values, dtype=float)
        log_f = np.log(f)
        want = (np.mean(beta_d + beta_f2 * log_f),
                np.mean(beta_tau + beta_r / f + beta_f2 * log_f),
                np.mean(beta_dtau + beta_dr / f + beta_f2 * log_f))
        effects = true_aggregate_effects(params, f_values)
        got = (effects.direct, effects.network, effects.interaction)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        assert true_aggregate_effects(params, f) == effects

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            true_aggregate_effects(dgp_scenario("i"), [])
        with pytest.raises(ValueError):
            true_aggregate_effects(dgp_scenario("i"), [0, 2])
        with pytest.raises(ValueError, match="whole"):
            true_aggregate_effects(dgp_scenario("i"), [1.0, 2.5])


class TestSampleFrameValidation:
    def test_t_bounded_by_f(self):
        with pytest.raises(ValueError):
            make_frame([1.0], [1], [3], [2])

    @pytest.mark.parametrize("value", [2, -1])
    def test_d_binary(self, value):
        with pytest.raises(ValueError, match="d entries must be 0 or 1"):
            make_frame([1.0, 2.0], [1, value], [0, 0], [1, 1])

    def test_f_positive(self):
        with pytest.raises(ValueError):
            make_frame([1.0], [0], [0], [0])

    def test_restrict_to_f(self):
        frame = make_frame([1.0, 2.0, 3.0], [0, 1, 0], [1, 0, 2], [1, 1, 3])
        sub = frame.restrict_to_f(1)
        assert sub.n_selected == 2
        assert list(sub.y) == [1.0, 2.0]

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DgpParams(noise_sd=-1.0)
        with pytest.raises(ValueError):
            DgpParams(p_treat=0.0)

    @pytest.mark.parametrize("name", [f.name for f in fields(DgpParams)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_are_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            DgpParams(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dgp_scenario("iv", **{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_y_names_row(self, value):
        with pytest.raises(ValueError, match=r"y\[2\] is not finite"):
            make_frame([1.0, 2.0, value, math.nan], [0, 1, 0, 1], [0, 1, 1, 0], [1, 1, 2, 2])

    def test_outcome_columns(self):
        # a frame holds one outcome per unit; several outcomes are cell statistics
        for y in ([[1.0, 5.0], [2.0, 6.0]], np.zeros((2, 1)), np.zeros((2, 1, 1))):
            with pytest.raises(ValueError, match=r"shape \(n,\)"):
                make_frame(y, [0, 1], [0, 1], [1, 1])


class TestFrameCells:
    @pytest.mark.parametrize("f_scale", [1, 10 ** 6])
    def test_cells_group_units_by_d_t_f_in_ascending_order(self, f_scale):
        # friend counts far beyond the unit count keep the keys apart
        rng = np.random.default_rng(41)
        f = rng.integers(1, 6, size=300) * f_scale
        t = rng.integers(0, np.minimum(f, 5) + 1)
        d = rng.integers(0, 2, size=300)
        frame = make_frame(rng.standard_normal(300), d, t, f)
        cells = frame.cells
        want, of_unit, counts = np.unique(np.column_stack([f, t, d]), axis=0,
                                          return_inverse=True, return_counts=True)
        assert np.array_equal(np.column_stack([cells.f, cells.t, cells.d]), want)
        assert np.array_equal(cells.of_unit, of_unit.reshape(-1))
        assert np.array_equal(cells.counts, counts)
        assert frame.cells is cells  # computed once per frame

    @pytest.mark.parametrize("text", ["tr", "crf1long", "crf1short:f=3"])
    def test_cell_sums_equal_the_independent_reduction_bitwise(self, network_1000, text):
        # the frame's CellSums are the test suite's reduction of its unit-level
        # outcome over the cells of any design built on it, on a subframe too
        frame = simulate_frame(network_1000, dgp_scenario("iv", noise_sd=1.5), 23)
        spec = parse_model_spec(text)
        if spec.f is not None:
            frame = frame.restrict_to_f(spec.f)
        got, want = frame.cell_sums(), cell_statistics(build_design(frame, spec), frame.y)
        for a, b in ((got.values, want.values), (got.within, want.within)):
            assert a.shape == b.shape == (frame.cells.counts.size,)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
