import dataclasses
import json
import math

import numpy as np
import pytest

from netcrf import (
    EffectTable,
    MCConfig,
    ModelSpec,
    build_design,
    build_geometric_network,
    complete_effects,
    dgp_scenario,
    fit,
    generate_positions,
    parse_model_spec,
    recover_effect_table,
    run_study,
    simulate_frame,
    telescope_level_from_changes,
)
from netcrf.dgp import true_aggregate_effects
from netcrf.effects import _aggregate_contrasts, _contrasts
from conftest import cell_means, cell_statistics, make_frame, potential_outcome_grid, unit_fitted


@pytest.fixture(scope="module")
def noiseless_iii_frame():
    net = build_geometric_network(generate_positions(1500, 55), 0.025)
    return simulate_frame(net, dgp_scenario("iii", noise_sd=0.0), 56)


@pytest.fixture(scope="module")
def noisy_small_f_frame():
    # cap friend counts at 6 so the saturated designs stay well populated
    net = build_geometric_network(generate_positions(2000, 57), 0.025)
    frame = simulate_frame(net, dgp_scenario("iii"), 58)
    keep = frame.f <= 6
    return make_frame(frame.y[keep], frame.d[keep], frame.t[keep], frame.f[keep])


class TestCompleteEffects:
    def test_zero_interaction(self):
        assert complete_effects(2.0, 1.0, 0.0) == (1.0, 2.0)

    def test_additive_identity(self):
        assert complete_effects(2.0, 1.0, 0.5) == (1.5, 2.5)

    def test_identity_closure(self):
        # the construction identities are bitwise exact; the re-subtracted
        # closure agrees to rounding error
        rng = np.random.default_rng(0)
        for _ in range(50):
            delta0, tau0, tau_pm = rng.standard_normal(3)
            tau1, delta_t = complete_effects(delta0, tau0, tau_pm)
            assert tau1 == tau0 + tau_pm
            assert delta_t == delta0 + tau_pm
            assert (tau1 - tau0) - (delta_t - delta0) == pytest.approx(0.0, abs=1e-14)


class TestTelescoping:
    def test_single_step(self):
        assert telescope_level_from_changes([0.7]) == pytest.approx(0.7)

    def test_constant_changes(self):
        assert telescope_level_from_changes([0.3] * 5) == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            telescope_level_from_changes([])

    def test_grid_change_effects_sum_to_level_effect(self):
        # algebraic identity on the same sample means: summing the mean
        # change effects for s = 1..t reproduces the mean level effect at t
        net = build_geometric_network(generate_positions(1200, 60), 0.025)
        frame = simulate_frame(net, dgp_scenario("iv"), 61)
        grid = potential_outcome_grid(net, dgp_scenario("iv"), 61)
        for f_value in range(1, 7):
            units = [i for i in range(frame.n_selected) if frame.f[i] == f_value]
            if not units:
                continue
            for t in range(1, f_value + 1):
                changes = []
                for s in range(1, t + 1):
                    step = [grid[i][1, s] - grid[i][1, s - 1] - grid[i][0, s] + grid[i][0, s - 1]
                            for i in units]
                    changes.append(np.mean(step))
                level = np.mean([grid[i][1, t] - grid[i][1, 0] - grid[i][0, t] + grid[i][0, 0]
                                 for i in units])
                assert telescope_level_from_changes(changes) == pytest.approx(level, abs=1e-10)


class TestCellMeans:
    # a frame's cells, and the cell means a saturated fit returns as its fitted values

    def test_identical_rows_collapse(self):
        frame = make_frame([2.5, 2.5], [1, 1], [1, 1], [2, 2])
        cells = frame.cells
        assert (cells.d.tolist(), cells.t.tolist(), cells.f.tolist()) == ([1], [1], [2])
        assert cells.counts.tolist() == [2]
        result = exact_fit(frame, ModelSpec.crf1_short(2), on_rank_deficiency="drop")
        assert result.cell_fitted[:, 0] == pytest.approx([2.5])

    def test_singletons(self):
        frame = make_frame([1.0, 4.0], [0, 1], [0, 1], [1, 1])
        assert frame.cells.counts.tolist() == [1, 1]
        result = exact_fit(frame, ModelSpec.crf1_long(), on_rank_deficiency="drop")
        assert result.cell_fitted[:, 0] == pytest.approx([1.0, 4.0])

    def test_count_weighted_mean_equals_grand_mean(self, noisy_small_f_frame):
        frame = noisy_small_f_frame
        result = exact_fit(frame, ModelSpec.crf1_long(f_max=6, t_max=6), on_rank_deficiency="drop")
        total = result.cell_fitted[:, 0] @ frame.cells.counts
        assert total / frame.n_selected == pytest.approx(frame.y.mean(), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_frame([], [], [], []).cells


def exact_fit(frame, spec, **kwargs):
    design = build_design(frame, spec)
    return fit(design, frame.y, **kwargs)


class TestRecoverLinearModels:
    def test_t_model_mapping(self):
        # y = 1 - f + 2 d + 0.3 t exactly; at f=4, t=2 the mapping gives
        # delta0=2, tau0=0.6, tau_pm=0, baseline=-3
        rng = np.random.default_rng(1)
        f = rng.integers(1, 8, size=60)
        t = rng.integers(0, f + 1)
        d = rng.integers(0, 2, size=60)
        y = 1.0 - f + 2.0 * d + 0.3 * t
        frame = make_frame(y, d, t, f)
        table = recover_effect_table(exact_fit(frame, ModelSpec.t_model()),
                                     ModelSpec.t_model(), frame.f)
        cell = table.cell(4, 2)
        assert cell.delta0 == pytest.approx(2.0, abs=1e-9)
        assert cell.tau0 == pytest.approx(0.6, abs=1e-9)
        assert cell.tau_pm == 0.0
        assert cell.baseline == pytest.approx(-3.0, abs=1e-9)
        assert cell.tau1 == pytest.approx(0.6, abs=1e-9)
        assert cell.delta_t == pytest.approx(2.0, abs=1e-9)
        assert table.aggregates.interaction == 0.0

    def test_tr_model_interaction_mapping(self):
        # slopes: tau_pm at (f=2, t=1) = beta_dtau + beta_dr / 2 = 0.2 + 1
        rng = np.random.default_rng(2)
        f = rng.integers(1, 9, size=300)
        t = rng.integers(0, f + 1)
        d = rng.integers(0, 2, size=300)
        y = (0.5 - 2.0 * f + 1.5 * d + (0.1 + 0.8 / f) * t + (0.2 + 2.0 / f) * d * t)
        frame = make_frame(y, d, t, f)
        table = recover_effect_table(exact_fit(frame, ModelSpec.tr_model()),
                                     ModelSpec.tr_model(), frame.f)
        cell = table.cell(2, 1)
        assert cell.tau_pm == pytest.approx(1.2, abs=1e-9)
        assert cell.delta_t == pytest.approx(cell.delta0 + 1.2, abs=1e-9)

    def test_zero_noise_scenario_iii_tr_recovery(self, noiseless_iii_frame):
        frame = noiseless_iii_frame
        table = recover_effect_table(exact_fit(frame, ModelSpec.tr_model()),
                                     ModelSpec.tr_model(), frame.f)
        for cell in table.cells:
            expected = (0.2 + 2.0 / cell.f) * cell.t
            assert cell.tau0 == pytest.approx(expected, abs=1e-8)
            assert cell.tau_pm == pytest.approx(expected, abs=1e-8)
            assert cell.delta0 == pytest.approx(2.0, abs=1e-8)
            assert cell.baseline == pytest.approx(-2.0 * cell.f, abs=1e-7)

    def test_zero_noise_scenario_iii_crf1short_f2(self, noiseless_iii_frame):
        frame = noiseless_iii_frame.restrict_to_f(2)
        spec = ModelSpec.crf1_short(2)
        table = recover_effect_table(exact_fit(frame, spec, on_rank_deficiency="drop"),
                                     spec, frame.f)
        for t in (1, 2):
            assert table.cell(2, t).tau0 == pytest.approx(1.2 * t, abs=1e-8)

    def test_crf2_polynomial_mapping(self):
        # exact quadratic DGP in f: delta0(f) = 1 + f - 0.5 f^2
        rng = np.random.default_rng(3)
        f = rng.integers(1, 7, size=400)
        t = rng.integers(0, f + 1)
        d = rng.integers(0, 2, size=400)
        y = (2.0 + f) + (1.0 + f - 0.5 * f**2) * d + 0.3 * t + 0.1 * d * t
        frame = make_frame(y, d, t, f)
        spec = ModelSpec.crf2(2)
        table = recover_effect_table(exact_fit(frame, spec), spec, frame.f)
        for cell in table.cells:
            assert cell.delta0 == pytest.approx(1.0 + cell.f - 0.5 * cell.f**2, abs=1e-7)
            assert cell.tau0 == pytest.approx(0.3 * cell.t, abs=1e-7)
            assert cell.tau_pm == pytest.approx(0.1 * cell.t, abs=1e-7)
            assert cell.baseline == pytest.approx(2.0 + cell.f, abs=1e-7)


class TestSaturatedOracle:
    def test_long_fitted_values_equal_cell_means(self, noisy_small_f_frame):
        frame = noisy_small_f_frame
        spec = ModelSpec.crf1_long(f_max=6, t_max=6)
        result = exact_fit(frame, spec, on_rank_deficiency="drop")
        means = cell_means(frame)
        fitted = unit_fitted(result)
        for i in range(frame.n_selected):
            expected = means[int(frame.d[i]), int(frame.t[i]), int(frame.f[i])][0]
            assert fitted[i] == pytest.approx(expected, abs=1e-8)

    def test_long_short_equivalence(self, noisy_small_f_frame):
        # effects identified by occupied cells agree between the pooled and
        # per-subsample saturated fits; combined contrasts from empty
        # companion cells have arbitrary attribution and are not compared
        from conftest import identified_effects

        frame = noisy_small_f_frame
        means = cell_means(frame)
        long_spec = ModelSpec.crf1_long(f_max=6, t_max=6)
        long_table = recover_effect_table(
            exact_fit(frame, long_spec, on_rank_deficiency="drop"), long_spec, frame.f)
        compared = 0
        for f_value in np.unique(frame.f).tolist():
            subframe = frame.restrict_to_f(f_value)
            short_spec = ModelSpec.crf1_short(f_value)
            short_table = recover_effect_table(
                exact_fit(subframe, short_spec, on_rank_deficiency="drop"),
                short_spec, subframe.f)
            for t in range(1, f_value + 1):
                long_cell = long_table.cell(f_value, t)
                short_cell = short_table.cell(f_value, t)
                for name in identified_effects(means, f_value, t):
                    long_value = getattr(long_cell, name)
                    short_value = getattr(short_cell, name)
                    assert long_value is not None and short_value is not None, (f_value, t, name)
                    assert long_value == pytest.approx(short_value, abs=1e-8)
                    compared += 1
        assert compared > 20

    def test_tau1_matches_grid_oracle_zero_noise(self):
        # with no noise the potential-outcome grid pins E[y^{1t} - y^{10} | F=f] exactly
        net = build_geometric_network(generate_positions(1500, 70), 0.025)
        frame = simulate_frame(net, dgp_scenario("iii", noise_sd=0.0), 71)
        grid = potential_outcome_grid(net, dgp_scenario("iii", noise_sd=0.0), 71)
        keep = frame.f <= 5
        sub = make_frame(frame.y[keep], frame.d[keep], frame.t[keep], frame.f[keep])
        spec = ModelSpec.crf1_long(f_max=5, t_max=5)
        table = recover_effect_table(exact_fit(sub, spec, on_rank_deficiency="drop"),
                                     spec, sub.f)
        kept_units = np.flatnonzero(keep)
        for cell in table.cells:
            if cell.tau1 is None:
                continue
            units = [i for i in kept_units if frame.f[i] == cell.f]
            oracle = np.mean([grid[i][1, cell.t] - grid[i][1, 0] for i in units])
            assert cell.tau1 == pytest.approx(oracle, abs=1e-8)


class TestAbsentCells:
    def test_unoccupied_cells_are_absent_not_zero(self):
        # f=3 has no t=2 observations, so the T=2:F=3 dummy column is zero
        frame = make_frame([1.0, 2.0, 1.5, 2.5, 3.0, 1.0],
                           [0, 1, 0, 1, 0, 1],
                           [0, 1, 1, 0, 3, 1],
                           [3, 3, 3, 3, 3, 3])
        spec = ModelSpec.crf1_long(f_max=3, t_max=3)
        result = exact_fit(frame, spec, on_rank_deficiency="drop")
        table = recover_effect_table(result, spec, frame.f)
        absent = table.cell(3, 2)
        assert absent.tau0 is None
        assert absent.tau1 is None
        present = table.cell(3, 1)
        assert present.tau0 is not None

    def test_aggregate_skips_absent_cells_and_counts_their_units(self, caplog):
        # no unit has t=1 at f=2, so the network aggregate skips the two f=2
        # units; no treated unit has t=1 at all, so the interaction aggregate
        # skips all six. No unit is in (1, 0, 2), whose column D:F=2 carries
        # the direct effect at f=2, so the direct aggregate skips the f=2 units
        frame = make_frame([1.0, 2.0, 1.5, 0.5, 2.5, 0.25],
                           [0, 1, 0, 1, 0, 0],
                           [0, 2, 1, 0, 1, 0],
                           [2, 2, 1, 1, 1, 1])
        spec = ModelSpec.crf1_long(f_max=2, t_max=2)
        result = exact_fit(frame, spec, on_rank_deficiency="drop")
        with caplog.at_level("DEBUG"):
            table = recover_effect_table(result, spec, frame.f)
        assert table.aggregates.network == table.cell(1, 1).tau0 == pytest.approx(2.0 - 0.25)
        direct, network, interaction = table.aggregates.skipped_units
        assert (network, interaction) == (2, 6)
        assert direct == 2 == sum(n for f, n in ((1, 4), (2, 2)) if table.cell(f, 1).delta0 is None)
        assert table.aggregates.interaction is None
        assert json.loads(table.to_json())["aggregates"]["skipped_units"] == [direct, 2, 6]
        assert not caplog.records

    def test_aggregate_skips_fields_whose_cells_are_empty(self):
        # (0, 0, 1) is empty, so F=1 is dropped and the kept T=1:F=1 and
        # D:F=1 are the levels of (0, 1, 1) and (1, 0, 1): the table shows
        # them as tau0 and delta0 at f=1, and the aggregates skip them
        frame = make_frame([1.0, 2.0, 1.5, 0.5, 2.5, 4.0],
                           [0, 1, 0, 1, 0, 0],
                           [0, 0, 1, 0, 1, 1],
                           [2, 2, 1, 1, 1, 2])
        spec = ModelSpec.crf1_long(f_max=2, t_max=2)
        result = exact_fit(frame, spec, on_rank_deficiency="drop")
        assert "F=1" in result.dropped_columns
        table = recover_effect_table(result, spec, frame.f)
        assert (table.cell(1, 1).delta0, table.cell(1, 1).tau0) == pytest.approx((0.5, 2.0))
        assert table.aggregates.direct == table.cell(2, 1).delta0 == pytest.approx(1.0)
        assert table.aggregates.network == table.cell(2, 1).tau0 == pytest.approx(3.0)
        assert table.aggregates.skipped_units == (3, 3, 6)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_crf1long_aggregates_stay_near_the_true_effects(self, network_2000, seed):
        # at N=2000 most large friend counts leave a cell empty; averaging a
        # level reported in a contrast's place put the aggregates 0.8-1.5
        # away from the truth on these frames
        params = dgp_scenario("iv")
        frame = simulate_frame(network_2000, params, seed)
        spec = ModelSpec.crf1_long()
        result = exact_fit(frame, spec, on_rank_deficiency="drop")
        got = recover_effect_table(result, spec, frame.f, t_grid=()).aggregates
        true = true_aggregate_effects(params, frame.f)
        for name in ("direct", "network", "interaction"):
            assert abs(getattr(got, name) - getattr(true, name)) < 0.5, name

    def test_crf1short_other_f_is_absent(self, noisy_small_f_frame, caplog):
        frame = noisy_small_f_frame
        sub = frame.restrict_to_f(3)
        spec = ModelSpec.crf1_short(3)
        result = exact_fit(sub, spec, on_rank_deficiency="drop")
        f_values = np.concatenate([sub.f, [2, 2, 4]])
        with caplog.at_level("DEBUG"):
            table = recover_effect_table(result, spec, f_values)
        for cell in table.cells:
            values = [getattr(cell, name) for name in EffectTable.CSV_COLUMNS[2:]]
            if cell.f == 3:
                assert cell.baseline is not None and cell.delta0 is not None
            else:
                assert values == [None] * 6, cell
        own = recover_effect_table(result, spec, sub.f).aggregates
        assert table.aggregates == dataclasses.replace(
            own, skipped_units=tuple(s + 3 for s in own.skipped_units))
        assert not caplog.records

    def test_crf1long_beyond_f_max_and_t_max_is_absent(self, noisy_small_f_frame):
        frame = noisy_small_f_frame
        keep = frame.t <= 2
        sub = make_frame(frame.y[keep], frame.d[keep], frame.t[keep], frame.f[keep])
        spec = ModelSpec.crf1_long(f_max=6, t_max=2)
        result = exact_fit(sub, spec, on_rank_deficiency="drop")
        table = recover_effect_table(result, spec, np.concatenate([sub.f, [7]]))
        beyond_t = table.cell(5, 3)
        assert beyond_t.baseline is not None and beyond_t.delta0 is not None
        for name in ("tau0", "tau_pm", "tau1", "delta_t"):
            assert getattr(beyond_t, name) is None, name
        assert table.cell(5, 2).tau0 is not None
        for t in range(1, 8):
            cell = table.cell(7, t)
            assert [getattr(cell, name) for name in EffectTable.CSV_COLUMNS[2:]] == [None] * 6

    def test_dropped_column_makes_its_cells_absent(self):
        # F is constant, so one of the collinear columns 1 and F is dropped:
        # the baseline weights both and is absent; delta0, tau0 and tau_pm
        # weight neither and stay present
        rng = np.random.default_rng(4)
        d = rng.integers(0, 2, size=40)
        t = rng.integers(0, 4, size=40)
        f = np.full(40, 3)
        frame = make_frame(1.0 + 2.0 * d + 0.5 * t + rng.standard_normal(40), d, t, f)
        spec = ModelSpec.t_model()
        result = exact_fit(frame, spec, on_rank_deficiency="drop")
        assert len(result.dropped_columns) == 1
        table = recover_effect_table(result, spec, frame.f)
        for cell in table.cells:
            assert cell.baseline is None
            assert None not in (cell.delta0, cell.tau0, cell.tau_pm, cell.tau1, cell.delta_t)

    @pytest.mark.parametrize("spec", [ModelSpec.t_model(), ModelSpec.r_model()])
    def test_count_and_ratio_designs_give_exact_zero_interaction(self, noisy_small_f_frame,
                                                                 spec):
        frame = noisy_small_f_frame
        table = recover_effect_table(exact_fit(frame, spec), spec, frame.f)
        values = [cell.tau_pm for cell in table.cells] + [table.aggregates.interaction]
        # +0.0 exactly: a negative zero would print as "-0" in the CSV
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)

    @pytest.mark.parametrize("spec", [
        ModelSpec.t_model(), ModelSpec.r_model(), ModelSpec.tr_model(), ModelSpec.crf2(2),
        ModelSpec.crf2(1, t_order=2), ModelSpec.crf1_long(f_max=6, t_max=6),
    ])
    def test_empty_t_grid_gives_full_table_aggregates(self, noisy_small_f_frame, spec):
        frame = noisy_small_f_frame
        result = exact_fit(frame, spec, on_rank_deficiency="drop")
        full = recover_effect_table(result, spec, frame.f)
        aggregates_only = recover_effect_table(result, spec, frame.f, t_grid=())
        assert aggregates_only.cells == ()
        assert aggregates_only.aggregates == full.aggregates

    def test_requires_nonempty_f_values(self, noiseless_iii_frame):
        result = exact_fit(noiseless_iii_frame, ModelSpec.t_model())
        with pytest.raises(ValueError):
            recover_effect_table(result, ModelSpec.t_model(), [])

    def test_friend_counts_follow_the_rule_of_the_true_effects(self, noiseless_iii_frame):
        # one rule for both: whole numbers >= 1, as integers or floats
        spec = ModelSpec.t_model()
        result = exact_fit(noiseless_iii_frame, spec)
        params = dgp_scenario("iii")
        for bad in ([0, 2], [1.0, 2.5], [np.nan]):
            with pytest.raises(ValueError):
                recover_effect_table(result, spec, bad)
            with pytest.raises(ValueError):
                true_aggregate_effects(params, bad)
        whole = [1.0, 3.0, 3.0]
        assert recover_effect_table(result, spec, whole) == recover_effect_table(result, spec,
                                                                                 [1, 3, 3])
        assert true_aggregate_effects(params, whole) == true_aggregate_effects(params, [1, 3, 3])


class TestEffectTableOutput:
    def test_csv_layout(self, noiseless_iii_frame):
        frame = noiseless_iii_frame
        spec = ModelSpec.tr_model()
        table = recover_effect_table(exact_fit(frame, spec), spec, frame.f)
        text = table.to_csv_text()
        header, first = text.splitlines()[:2]
        assert header == "f,t,delta0,tau0,tau_pm,tau1,delta_t,baseline"
        assert first.startswith("1,1,")

    def test_json_round_trip_values(self, noiseless_iii_frame):
        frame = noiseless_iii_frame
        spec = ModelSpec.tr_model()
        table = recover_effect_table(exact_fit(frame, spec), spec, frame.f)
        payload = table.to_json_dict()
        assert payload["model"] == "tr"
        assert payload["aggregates"]["direct"] == pytest.approx(2.0, abs=1e-8)
        assert len(payload["cells"]) == len(table.cells)


class TestMultiOutcomeAggregates:
    @pytest.mark.parametrize("spec", [
        ModelSpec.t_model(), ModelSpec.r_model(), ModelSpec.tr_model(), ModelSpec.crf2(2),
        ModelSpec.crf2(1, t_order=2), ModelSpec.crf1_long(f_max=6, t_max=6),
    ])
    def test_equal_per_column_aggregates_bitwise(self, noisy_small_f_frame, spec):
        frame = noisy_small_f_frame
        rng = np.random.default_rng(21)
        y = np.column_stack([frame.y, frame.y + rng.standard_normal(frame.n_selected),
                             2.0 * frame.y - 1.0])
        design = build_design(frame, spec)
        multi = fit(design, cell_statistics(design, y), on_rank_deficiency="drop")
        multi = recover_effect_table(multi, spec, frame.f, t_grid=())
        assert multi.cells == () and len(multi.aggregates) == 3
        for j, got in enumerate(multi.aggregates):
            one = fit(build_design(frame, spec), y[:, j].copy(), on_rank_deficiency="drop")
            want = recover_effect_table(one, spec, frame.f, t_grid=()).aggregates
            for name in ("direct", "network", "interaction"):
                a, b = getattr(got, name), getattr(want, name)
                assert a == b and (a is None or math.copysign(1.0, a) == math.copysign(1.0, b))

    def test_absent_cells_are_skipped_in_every_column(self):
        # no unit has t=1 at f=2, so each column's network aggregate skips f=2
        frame = make_frame([1.0, 2.0, 1.5, 0.5, 2.5, 1.0, 0.25],
                           [0, 1, 0, 1, 0, 1, 0],
                           [0, 2, 1, 0, 1, 1, 0],
                           [2, 2, 1, 1, 1, 1, 1])
        spec = ModelSpec.crf1_long(f_max=2, t_max=2)
        y = np.column_stack([frame.y, frame.y * 3.0])
        design = build_design(frame, spec)
        both = fit(design, cell_statistics(design, y), on_rank_deficiency="drop")
        table = recover_effect_table(both, spec, frame.f, t_grid=())
        for j, agg in enumerate(table.aggregates):
            assert agg.network is not None and agg.skipped_units[1] == 2
            one = fit(build_design(frame, spec), y[:, j].copy(), on_rank_deficiency="drop")
            assert agg == recover_effect_table(one, spec, frame.f, t_grid=()).aggregates

    def test_per_cell_table_needs_one_outcome_fit(self, noisy_small_f_frame):
        frame = noisy_small_f_frame
        spec = ModelSpec.tr_model()
        design = build_design(frame, spec)
        result = fit(design, cell_statistics(design, np.column_stack([frame.y, frame.y])))
        with pytest.raises(ValueError, match="one-outcome"):
            recover_effect_table(result, spec, frame.f)
        with pytest.raises(ValueError, match="one-outcome"):
            recover_effect_table(result, spec, frame.f, t_grid=(1,))


class TestAggregateContrastCache:
    @pytest.mark.parametrize("spec", [
        ModelSpec.t_model(), ModelSpec.tr_model(), ModelSpec.crf2(2, t_order=2),
        ModelSpec.crf1_long(f_max=6, t_max=6), ModelSpec.crf1_short(3),
    ])
    def test_cached_contrasts_are_read_only_and_equal_uncached(self, noisy_small_f_frame, spec):
        frame = noisy_small_f_frame
        if spec.f is not None:
            frame = frame.restrict_to_f(spec.f)
        labels = build_design(frame, spec).labels
        f_values = tuple(np.unique(frame.f).tolist())
        cached = _aggregate_contrasts(labels, f_values)
        f = np.array(f_values, dtype=float)
        fresh = _contrasts(labels, f, np.ones(f.size))
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0, 0] = 1.0
        assert cached.dtype == fresh.dtype and cached.shape == fresh.shape
        assert cached.tobytes() == fresh.tobytes()
        assert _aggregate_contrasts(labels, f_values) is cached

    def test_cache_stays_bounded_and_leaves_a_study_unchanged(self):
        config = MCConfig(n_units=2000, scenario="iv",
                          estimators=tuple(parse_model_spec(s) for s in ("t", "tr", "crf2:J=2")),
                          repetitions=50, master_seed=41)
        _aggregate_contrasts.cache_clear()
        cold = run_study(config).to_csv_text()
        info = _aggregate_contrasts.cache_info()
        assert info.currsize <= info.maxsize and info.hits > 0
        assert run_study(config).to_csv_text() == cold
        info = _aggregate_contrasts.cache_info()
        assert info.currsize <= info.maxsize
