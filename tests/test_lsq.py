import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from netcrf import (
    ModelSpec,
    NumericalError,
    RankDeficiencyError,
    build_design,
    dgp_scenario,
    fit,
    parse_model_spec,
    recover_effect_table,
    simulate_frame,
)
from netcrf import _lapack
from netcrf.design import _pivoted_qr
from netcrf.lsq import DEFAULT_RANK_TOL, CellSums, _solve_triangular
from netcrf.dgp import check_finite_y, simulate_cells
from conftest import (cell_means, cell_statistics, duplicated_frames, identified_effects,
                      make_frame, matrix_design, sparse_saturated_fits, unit_fitted)


def normal_equations_oracle(x, y):
    """Brute-force (X'X)^-1 X'y, the independent benchmark for fit()."""
    xtx = x.T @ x
    return np.linalg.solve(xtx, x.T @ y)


def random_system(rng, n=50, k=4):
    x = rng.standard_normal((n, k))
    x[:, 0] = 1.0
    beta = rng.standard_normal(k)
    y = x @ beta + 0.1 * rng.standard_normal(n)
    return matrix_design(x, tuple(f"c{i}" for i in range(k))), y


class TestFit:
    def test_exact_recovery_two_columns(self):
        d = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        x = matrix_design(np.column_stack([np.ones(5), d]), ("1", "D"))
        result = fit(x, cell_statistics(x, 3.0 + 2.0 * d))
        assert result.coef("1") == pytest.approx(3.0, abs=1e-12)
        assert result.coef("D") == pytest.approx(2.0, abs=1e-12)
        assert result.rank == 2

    def test_duplicated_column_dropped(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((30, 2))
        x = matrix_design(np.column_stack([np.ones(30), base, base[:, 0]]),
                          ("1", "a", "b", "a_copy"))
        y = rng.standard_normal(30)
        result = fit(x, cell_statistics(x, y), on_rank_deficiency="drop")
        assert result.rank == 3
        assert len(result.dropped_columns) == 1
        assert result.dropped_columns[0] in ("a", "a_copy")
        assert result.coef(result.dropped_columns[0]) is None

    def test_duplicated_column_error_mode(self):
        x = matrix_design(np.column_stack([np.ones(10), np.ones(10)]), ("1", "1_copy"))
        with pytest.raises(RankDeficiencyError) as info:
            fit(x, cell_statistics(x, np.zeros(10)))
        assert len(info.value.dependent_columns) == 1

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            x, y = random_system(rng)
            result = fit(x, cell_statistics(x, y))
            expected = normal_equations_oracle(x.values, y)
            assert np.max(np.abs(result.coefficients - expected)) < 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(1)
        x, y = random_system(rng, n=200, k=6)
        residuals = y - unit_fitted(fit(x, cell_statistics(x, y)))
        res_norm = np.linalg.norm(residuals)
        for col in range(x.n_cols):
            column = x.values[:, col]
            bound = 1e-8 * np.linalg.norm(column) * max(res_norm, 1.0)
            assert abs(column @ residuals) < bound

    def test_affine_equivariance(self):
        rng = np.random.default_rng(2)
        x, y = random_system(rng, n=80, k=5)
        base = fit(x, cell_statistics(x, y))
        a = 3.5
        c = rng.standard_normal(5)
        shifted = fit(x, cell_statistics(x, a * y + x.values @ c))
        assert np.max(np.abs(shifted.coefficients - (a * base.coefficients + c))) < 1e-9

    def test_idempotence_on_fitted_values(self):
        rng = np.random.default_rng(3)
        x, y = random_system(rng)
        first = fit(x, cell_statistics(x, y))
        fitted = unit_fitted(first)
        second = fit(x, cell_statistics(x, fitted))
        assert np.max(np.abs(second.coefficients - first.coefficients)) < 1e-10
        assert np.max(np.abs(fitted - unit_fitted(second))) < 1e-10

    def test_dimension_mismatch(self):
        x = matrix_design(np.ones((4, 1)), ("1",))
        with pytest.raises(ValueError, match="shape"):
            fit(x, CellSums(np.ones(5), np.zeros(5)))

    def test_unknown_policy(self):
        x = matrix_design(np.ones((4, 1)), ("1",))
        with pytest.raises(ValueError):
            fit(x, cell_statistics(x, np.ones(4)), on_rank_deficiency="ignore")

    def test_all_zero_column_dropped(self):
        x = matrix_design(np.column_stack([np.ones(12), np.zeros(12)]), ("1", "empty"))
        result = fit(x, cell_statistics(x, np.arange(12.0)), on_rank_deficiency="drop")
        assert result.dropped_columns == ("empty",)
        assert result.coef("1") == pytest.approx(5.5)

    def test_shared_design_fits_equal_fresh_fits_bitwise(self):
        rng = np.random.default_rng(9)
        x, y1 = random_system(rng, n=200, k=5)
        y2 = rng.standard_normal(200)
        shared = [fit(x, cell_statistics(x, y)) for y in (y1, y2)]
        fresh = [fit(matrix_design(x.values.copy(), x.labels), cell_statistics(x, y))
                 for y in (y1, y2)]
        for a, b in zip(shared, fresh):
            for name in ("coefficients", "cell_fitted", "vcov_classical", "vcov_robust"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert not np.array_equal(shared[0].coefficients, shared[1].coefficients)

    def test_design_values_are_read_only(self):
        frame = make_frame(np.zeros(4), [0, 1, 0, 1], [0, 1, 1, 2], [1, 2, 2, 3])
        x = build_design(frame, ModelSpec.tr_model())
        with pytest.raises(ValueError):
            x.cell_values[0, 0] = 1.0
        with pytest.raises(ValueError):
            x.values[0, 0] = 1.0

    def test_serialization(self):
        rng = np.random.default_rng(4)
        x, y = random_system(rng)
        payload = fit(x, cell_statistics(x, y)).to_json_dict()
        assert payload["rank"] == 4
        assert len(payload["coefficients"]) == 4


class TestVcov:
    def test_scaling_law(self):
        rng = np.random.default_rng(5)
        x, y = random_system(rng, n=120)
        v1 = fit(x, cell_statistics(x, y)).vcov_classical
        v2 = fit(x, cell_statistics(x, 2.0 * y)).vcov_classical
        assert np.max(np.abs(v2 - 4.0 * v1)) < 1e-10 * np.max(np.abs(v1))
        r1 = fit(x, cell_statistics(x, y)).vcov_robust
        r2 = fit(x, cell_statistics(x, 2.0 * y)).vcov_robust
        assert np.max(np.abs(r2 - 4.0 * r1)) < 1e-10 * np.max(np.abs(r1))

    def test_zero_residual_fit_has_zero_classical_vcov(self):
        d = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        x = matrix_design(np.column_stack([np.ones(6), d]), ("1", "D"))
        result = fit(x, cell_statistics(x, 1.0 + 2.0 * d))
        assert np.max(np.abs(result.vcov_classical)) < 1e-20
        assert np.max(np.abs(result.vcov_robust)) < 1e-20

    def test_homoskedastic_classical_close_to_robust(self):
        rng = np.random.default_rng(6)
        n = 10_000
        x_mat = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = x_mat @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(n)
        x = matrix_design(x_mat, ("1", "a", "b"))
        result = fit(x, cell_statistics(x, y))
        classical = np.diag(result.vcov_classical)
        robust = np.diag(result.vcov_robust)
        assert np.all(np.abs(robust / classical - 1.0) < 0.2)

    def test_saturated_fit_has_no_classical_vcov(self):
        # n = rank leaves no residual degrees of freedom for s^2
        x = matrix_design(np.eye(3), ("a", "b", "c"))
        result = fit(x, cell_statistics(x, np.arange(3.0)))
        assert result.vcov_classical is None
        assert result.to_json_dict()["vcov_classical"] is None
        assert result.vcov_robust.shape == (3, 3)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        x, y = random_system(rng, n=300, k=5)
        result = fit(x, cell_statistics(x, y))
        for v in (result.vcov_classical, result.vcov_robust):
            assert np.max(np.abs(v - v.T)) == 0.0
            assert np.min(np.linalg.eigvalsh(v)) > -1e-12


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def multi_outcome_designs():
    rng = np.random.default_rng(11)
    full, _ = random_system(rng, n=120, k=5)
    base = rng.standard_normal((120, 3))
    deficient = matrix_design(np.column_stack([np.ones(120), base, base[:, 1], np.zeros(120)]),
                              ("1", "a", "b", "c", "b_copy", "empty"))
    rank_zero = matrix_design(np.zeros((120, 2)), ("z1", "z2"))
    return {"full": full, "deficient": deficient, "rank_zero": rank_zero}


class TestMultiOutcome:
    @pytest.mark.parametrize("name", ["full", "deficient", "rank_zero"])
    def test_columns_equal_one_outcome_fits_bitwise(self, name):
        x = multi_outcome_designs()[name]
        rng = np.random.default_rng(12)
        y = rng.standard_normal((x.n_rows, 4)) + np.arange(4.0)
        multi = fit(x, cell_statistics(x, y), on_rank_deficiency="drop")
        assert multi.n_outcomes == 4
        assert multi.coefficients.shape == (x.n_cols, 4)
        assert multi.cell_fitted.shape == (x.n_cells, 4)
        for j in range(4):
            fresh = matrix_design(x.values.copy(), x.labels)
            one = fit(fresh, cell_statistics(fresh, y[:, j].copy()), on_rank_deficiency="drop")
            assert one.n_outcomes is None
            assert (one.rank, one.dropped_columns) == (multi.rank, multi.dropped_columns)
            assert same_bits(multi.coefficients[:, j], one.coefficients), j
            assert same_bits(multi.cell_fitted[:, j], one.cell_fitted[:, 0]), j
        expected_rank = {"full": 5, "deficient": 4, "rank_zero": 0}[name]
        assert multi.rank == expected_rank

    def test_column_does_not_depend_on_its_neighbours(self):
        x = multi_outcome_designs()["full"]
        rng = np.random.default_rng(13)
        y = rng.standard_normal((x.n_rows, 3))
        wide = fit(x, cell_statistics(x, y))
        narrow = fit(x, cell_statistics(x, y[:, [2, 0]]))
        assert same_bits(wide.coefficients[:, 2], narrow.coefficients[:, 0])
        assert same_bits(wide.coefficients[:, 0], narrow.coefficients[:, 1])

    def test_single_column_matrix_stays_multi_outcome(self):
        x = multi_outcome_designs()["full"]
        y = np.random.default_rng(14).standard_normal(x.n_rows)
        multi = fit(x, cell_statistics(x, y[:, None]))
        assert multi.n_outcomes == 1
        assert same_bits(multi.coefficients[:, 0], fit(x, cell_statistics(x, y)).coefficients)

    def test_error_policy_rejects_deficient_multi_outcome_fit(self):
        x = multi_outcome_designs()["deficient"]
        with pytest.raises(RankDeficiencyError):
            fit(x, cell_statistics(x, np.zeros((x.n_rows, 3))))

    @pytest.mark.parametrize("read", [
        lambda r: r.vcov_classical, lambda r: r.vcov_robust, lambda r: r.to_json(),
        lambda r: r.to_json_dict(), lambda r: r.coef("c0"),
    ])
    def test_one_outcome_outputs_reject_multi_outcome_fits(self, read):
        x = multi_outcome_designs()["full"]
        result = fit(x, cell_statistics(x, np.ones((x.n_rows, 2))))
        with pytest.raises(ValueError, match="one-outcome"):
            read(result)

    def test_bad_shapes_rejected(self):
        x = multi_outcome_designs()["full"]
        for shape in ((x.n_cells, 2, 2), (x.n_cells + 1,), (x.n_cells + 1, 2)):
            with pytest.raises(ValueError, match="shape"):
                fit(x, CellSums(np.ones(shape), np.zeros(shape)))

    def test_unit_level_outcomes_are_a_type_error(self):
        # an outcome comes as cell statistics, never as a unit-level array
        frame = saturated_frame(35)
        x = build_design(frame, ModelSpec.tr_model())
        for y in (frame.y, frame.y.tolist(), np.column_stack([frame.y, frame.y])):
            with pytest.raises(TypeError, match=r"CellSums.*SampleFrame\.cell_sums\(\)"):
                fit(x, y)


class TestNonFiniteOutcome:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_outcome_names_row(self, value):
        # a frame checks its outcome on entry, before any cell sums are made
        y = np.ones(12)
        y[7] = value
        y[9] = np.nan
        with pytest.raises(ValueError, match=r"y\[7\] is not finite"):
            make_frame(y, np.zeros(12), np.zeros(12), np.ones(12))

    def test_multi_outcome_names_row_and_column(self):
        # the check a draw of several scenarios runs on its unit-level outcomes
        y = np.ones((120, 3))
        y[5, 2] = np.nan
        y[6, 0] = np.inf
        with pytest.raises(ValueError, match=r"y\[5, 2\] is not finite"):
            check_finite_y(y)


def saturated_frame(seed):
    """A crf1long frame with empty F=3 cells, one F=5 unit and twelve F=6
    units none of which has t=0; elsewhere d and t are random."""
    rng = np.random.default_rng(seed)
    f = np.concatenate([rng.choice([1, 2, 4], size=150), [5], np.full(12, 6)])
    t = rng.integers(0, f + 1)
    t[-12:] = rng.integers(1, 7, size=12)
    d = rng.integers(0, 2, size=f.size)
    y = rng.standard_normal(f.size) + f - 2.0 * d * t
    return make_frame(y, d, t, f)


def dense_fit(x, y):
    """One dense pivoted QR of the whole design, rank against its largest pivot,
    and the variance arithmetic of a QR fit, written out directly."""
    q, r, pivots = scipy.linalg.qr(x.values, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    below = diag <= DEFAULT_RANK_TOL * diag[0]
    rank = int(np.argmax(below)) if below.any() else diag.size
    beta = scipy.linalg.solve_triangular(r[:rank, :rank], (q.T @ y)[:rank])
    coefficients = np.full(x.n_cols, np.nan)
    coefficients[pivots[:rank]] = beta
    residuals = y - x.values[:, pivots[:rank]] @ beta
    r_inv, info = scipy.linalg.lapack.dtrtri(r[:rank, :rank])
    assert info == 0
    order = np.argsort(pivots[:rank])
    xtx_inv = (r_inv @ r_inv.T)[np.ix_(order, order)]
    classical = float(residuals @ residuals) / (x.n_rows - rank) * xtx_inv
    weighted = x.values[:, np.sort(pivots[:rank])] * residuals[:, None]
    robust = xtx_inv @ (weighted.T @ weighted) @ xtx_inv
    return {"coefficients": coefficients, "residuals": residuals,
            "dropped_columns": tuple(x.labels[i] for i in sorted(pivots[rank:])),
            "vcov_classical": 0.5 * (classical + classical.T),
            "vcov_robust": 0.5 * (robust + robust.T)}


def sandwich(x, retained, residuals):
    """Classical (None when n <= rank) and robust variances on the given
    columns from their own dense QR."""
    cols = x.values[:, retained]
    _, r = scipy.linalg.qr(cols, mode="economic")
    r_inv = scipy.linalg.solve_triangular(r, np.eye(r.shape[0]))
    xtx_inv = r_inv @ r_inv.T
    weighted = cols * residuals[:, None]
    dof = x.n_rows - len(retained)
    classical = float(residuals @ residuals) / dof * xtx_inv if dof > 0 else None
    return classical, xtx_inv @ (weighted.T @ weighted) @ xtx_inv


def assert_close(a, b, tol=1e-12):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= tol * max(1.0, np.max(np.abs(b), initial=0.0))


class TestBlockFit:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_dropped_columns_are_the_columns_of_empty_cells(self, seed):
        frame = saturated_frame(seed)
        x = build_design(frame, ModelSpec.crf1_long())
        result = fit(x, cell_statistics(x, frame.y), on_rank_deficiency="drop")
        empty = tuple(label for label, own in zip(x.labels, x.own_cell) if own < 0)
        assert result.dropped_columns == empty
        assert result.rank == x.n_cells and result.min_pivot_ratio is None
        # F=6 has no t=0 unit: F=6 goes, not one of its T=t:F=6 twins
        assert {"F=3", "D:F=3", "F=6"} <= set(result.dropped_columns)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_identified_effects_and_variances_equal_the_dense_fit(self, seed):
        frame = saturated_frame(seed)
        spec = ModelSpec.crf1_long()
        x = build_design(frame, spec)
        result = fit(x, cell_statistics(x, frame.y), on_rank_deficiency="drop")
        dense = dense_fit(x, frame.y)
        assert len(dense["dropped_columns"]) == len(result.dropped_columns)
        assert_close(frame.y - unit_fitted(result), dense["residuals"])

        as_dense = dataclasses.replace(result, coefficients=dense["coefficients"],
                                       dropped_columns=dense["dropped_columns"])
        cell_table = recover_effect_table(result)
        dense_table = recover_effect_table(as_dense)
        means = cell_means(frame)
        checked = 0
        for cell in cell_table.cells:
            for name in identified_effects(means, cell.f, cell.t):
                got, want = getattr(cell, name), getattr(dense_table.cell(cell.f, cell.t), name)
                assert got is not None and want is not None, (cell.f, cell.t, name)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (cell.f, cell.t, name)
                checked += 1
        assert checked > 10

        retained = [i for i, label in enumerate(x.labels) if label not in result.dropped_columns]
        classical, robust = sandwich(x, retained, dense["residuals"])
        assert_close(result.vcov_classical, classical)
        assert_close(result.vcov_robust, robust)

    @pytest.mark.parametrize("text", ["t", "r", "tr", "crf2:J=2", "crf2:J=2,t_order=2"])
    def test_linear_designs_equal_a_direct_dense_factorization_bitwise(self, network_1000, text):
        # a design with one cell per unit row: its coefficients are the dense
        # QR's bit for bit, and its variances, formed from per-cell residual
        # sums, agree to roundoff
        frame = simulate_frame(network_1000, dgp_scenario("iv"), 31)
        cells = build_design(frame, parse_model_spec(text))
        x = matrix_design(cells.values, cells.labels)
        result = fit(x, cell_statistics(x, frame.y))
        assert x.n_cells == x.n_rows
        dense = dense_fit(x, frame.y)
        assert result.dropped_columns == dense["dropped_columns"]
        assert same_bits(result.coefficients, dense["coefficients"])
        assert_close(result.vcov_classical, dense["vcov_classical"])
        robust = dense["vcov_robust"]
        assert np.abs(result.vcov_robust - robust).max() <= 1e-10 * np.abs(robust).max()

    @pytest.mark.parametrize("text", ["t", "r", "tr", "crf2:J=2", "crf2:J=2,t_order=2"])
    def test_cell_designs_equal_a_direct_dense_factorization(self, network_1000, text):
        frame = simulate_frame(network_1000, dgp_scenario("iv"), 31)
        x = build_design(frame, parse_model_spec(text))
        assert x.n_cells < x.n_rows / 10
        result = fit(x, cell_statistics(x, frame.y))
        dense = dense_fit(x, frame.y)
        assert result.dropped_columns == dense["dropped_columns"] == ()
        assert_close(frame.y - unit_fitted(result), dense["residuals"])
        for name in ("coefficients", "vcov_classical"):
            assert_close(getattr(result, name), dense[name])
        # the sandwich's rounding grows with the square of the condition
        # number (~7e3 for crf2 with t_order=2, whose entries agree to ~5e-12)
        robust = dense["vcov_robust"]
        assert np.abs(result.vcov_robust - robust).max() <= 1e-10 * np.abs(robust).max()

    def test_all_zero_rows_and_columns(self):
        values = np.zeros((6, 3))
        values[:4, 0] = 1.0
        values[2:4, 2] = 1.0
        x = matrix_design(values, ("a", "empty", "c"))
        y = np.arange(6.0)
        result = fit(x, cell_statistics(x, y), on_rank_deficiency="drop")
        assert result.dropped_columns == ("empty",)
        assert np.array_equal(result.cell_fitted[4:, 0], np.zeros(2))
        assert result.coef("a") == pytest.approx(0.5)
        assert result.coef("c") == pytest.approx(2.0)


def near_collinear_system():
    """Intercept, a and a + 5e-10 b: the last pivot is ~5e-10 of the first."""
    rng = np.random.default_rng(25)
    a, b = rng.standard_normal((2, 200))
    values = np.column_stack([np.ones(200), a, a + 5e-10 * b])
    return matrix_design(values, ("1", "a", "a_near")), rng.standard_normal(200)


class TestMinPivotRatio:
    def test_well_conditioned_design(self):
        n = 64
        x = matrix_design(np.column_stack([np.ones(n), np.resize([1.0, -1.0], n)]), ("1", "s"))
        payload = fit(x, cell_statistics(x, np.arange(n, dtype=float))).to_json_dict()
        assert payload["min_pivot_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_near_collinear_design_sits_just_above_rank_tol(self):
        x, y = near_collinear_system()
        result = fit(x, cell_statistics(x, y))
        assert result.rank == 3
        assert DEFAULT_RANK_TOL < result.min_pivot_ratio < 10 * DEFAULT_RANK_TOL
        diag = np.abs(np.diag(scipy.linalg.qr(x.values, mode="r", pivoting=True)[0]))
        assert result.min_pivot_ratio == pytest.approx(diag[-1] / diag[0], rel=1e-6)
        # a tolerance just above the ratio drops the near twin
        tighter = fit(x, cell_statistics(x, y), on_rank_deficiency="drop",
                      rank_tol=2 * result.min_pivot_ratio)
        assert tighter.rank == 2 and tighter.min_pivot_ratio > 0.01

    def test_near_collinear_variances_match_the_oracles(self):
        x, y = near_collinear_system()
        result = fit(x, cell_statistics(x, y))
        _, r, pivots = x.qr
        cond, eps = np.linalg.cond(r), np.finfo(float).eps
        # the sandwich oracle factors the columns afresh: a perturbation of X
        # of relative size eps moves (X'X)^-1 by up to cond(R)^2 eps relative
        residuals = y - unit_fitted(result)
        classical, robust = sandwich(x, [0, 1, 2], residuals)
        assert_close(result.vcov_classical, classical, tol=cond ** 2 * eps)
        assert_close(result.vcov_robust, robust, tol=cond ** 2 * eps)
        # two backward-stable inverses of the same R agree to cond(R) eps
        r_inv = scipy.linalg.solve_triangular(r, np.eye(3))
        order = np.argsort(pivots)
        s2 = float(residuals @ residuals) / (x.n_rows - 3)
        assert_close(result.vcov_classical, s2 * (r_inv @ r_inv.T)[np.ix_(order, order)],
                     tol=cond * eps)

    def test_failed_triangular_inverse_is_a_numerical_error(self, monkeypatch):
        # retained pivots are nonzero, so dtrtri cannot fail here: fake its failure
        x, y = near_collinear_system()
        result = fit(x, cell_statistics(x, y))
        monkeypatch.setattr(_lapack, "dtrtri", lambda r, lower: (r, 3))
        with pytest.raises(NumericalError, match=r"columns 1, a, a_near: LAPACK dtrtri info=3"):
            result.vcov_robust

    def test_rank_zero_has_no_ratio(self):
        x = matrix_design(np.zeros((5, 2)), ("z1", "z2"))
        payload = fit(x, cell_statistics(x, np.ones(5)), on_rank_deficiency="drop").to_json_dict()
        assert payload["rank"] == 0 and payload["min_pivot_ratio"] is None


class TestCellFit:
    """A fit on the sqrt(count)-weighted cell rows equals the unit-level
    least-squares fit and sandwich on the same retained columns."""

    @settings(deadline=None, max_examples=40)
    @given(duplicated_frames(), st.sampled_from(["t", "r", "tr", "crf1long", "crf1short"]))
    def test_equals_unit_level_lstsq_and_sandwich(self, frame, text):
        if text == "crf1short":
            f_common = int(np.bincount(frame.f).argmax())
            frame, text = frame.restrict_to_f(f_common), f"crf1short:f={f_common}"
        x = build_design(frame, parse_model_spec(text))
        assert x.n_cells == len({(a, b, c) for a, b, c in zip(frame.d, frame.t, frame.f)})
        assert np.array_equal(x.values, x.cell_values[x.cells.of_unit])
        result = fit(x, cell_statistics(x, frame.y), on_rank_deficiency="drop")

        retained = [i for i, label in enumerate(x.labels) if label not in result.dropped_columns]
        beta, _, rank, _ = np.linalg.lstsq(x.values[:, retained], frame.y, rcond=None)
        assert rank == len(retained) == result.rank
        residuals = frame.y - x.values[:, retained] @ beta
        assert_close(result.coefficients[retained], beta)
        assert_close(result.cell_fitted[x.cells.of_unit, 0], frame.y - residuals)
        if not retained:
            return
        classical, robust = sandwich(x, retained, residuals)
        assert_close(result.vcov_robust, robust)
        if classical is None:
            assert result.vcov_classical is None
        else:
            assert_close(result.vcov_classical, classical)

    def test_multi_outcome_columns_equal_one_outcome_fits_bitwise(self):
        frame = saturated_frame(26)
        x = build_design(frame, ModelSpec.crf1_long())
        y = np.column_stack([frame.y, -2.0 * frame.y + 1.0, frame.f * 0.5])
        multi = fit(x, cell_statistics(x, y), on_rank_deficiency="drop")
        for j in range(y.shape[1]):
            fresh = build_design(frame, ModelSpec.crf1_long())
            one = fit(fresh, cell_statistics(fresh, y[:, j].copy()), on_rank_deficiency="drop")
            assert same_bits(multi.coefficients[:, j], one.coefficients), j
            assert same_bits(multi.cell_fitted[:, j], one.cell_fitted[:, 0]), j


def own_cell_of(label, f_frame):
    """The (d, t, f) a saturated column label owns, read from its atoms."""
    atoms = label.split(":")
    t = [int(a[2:]) for a in atoms if a.startswith("T=")]
    f = [int(a[2:]) for a in atoms if a.startswith("F=")]
    return int("D" in atoms), t[0] if t else 0, f[0] if f else f_frame


def cell_mean_contrast(means, f, t, name):
    mean = lambda d, tt: means[(d, tt, f)][0]
    if name == "baseline":
        return mean(0, 0)
    if name == "delta0":
        return mean(1, 0) - mean(0, 0)
    if name == "tau0":
        return mean(0, t) - mean(0, 0)
    return mean(1, t) - mean(1, 0) - mean(0, t) + mean(0, 0)


class TestSaturatedFit:
    """A saturated fit keeps the column of each occupied cell: on sparse
    frames each occupied cell owns one column, and the fit's numbers equal
    cell means, lstsq and the sandwich oracle."""

    @settings(deadline=None, max_examples=150)
    @given(sparse_saturated_fits())
    def test_equals_the_cell_mean_oracles(self, case):
        frame, spec = case
        x = build_design(frame, spec)
        result = fit(x, cell_statistics(x, frame.y), on_rank_deficiency="drop")
        means = cell_means(frame)

        own = x.own_cell
        assert sorted(own[own >= 0].tolist()) == list(range(x.n_cells))
        for j in np.flatnonzero(own >= 0):
            reached = np.flatnonzero(x.cell_values[:, j])
            assert reached[0] == own[j] and x.cell_values[own[j], j] == 1.0
        f_frame = int(frame.f[0])
        empty = tuple(label for label in x.labels if own_cell_of(label, f_frame) not in means)
        assert result.dropped_columns == empty
        assert result.rank == x.n_cells == len(means)
        assert result.to_json_dict()["min_pivot_ratio"] is None
        unit_means = np.array([means[key][0] for key in zip(frame.d.tolist(), frame.t.tolist(),
                                                             frame.f.tolist())])
        assert_close(result.cell_fitted[x.cells.of_unit, 0], unit_means)

        table = recover_effect_table(result)
        for cell in table.cells:
            for name in identified_effects(means, cell.f, cell.t):
                got, want = getattr(cell, name), cell_mean_contrast(means, cell.f, cell.t, name)
                assert got is not None and abs(got - want) <= 1e-12 * max(1.0, abs(want))

        retained = [i for i, label in enumerate(x.labels) if label not in empty]
        beta = np.linalg.lstsq(x.values[:, retained], frame.y, rcond=None)[0]
        assert_close(result.coefficients[retained], beta)
        classical, robust = sandwich(x, retained, frame.y - x.values[:, retained] @ beta)
        assert_close(result.vcov_robust, robust)
        if classical is None:
            assert result.vcov_classical is None
        else:
            assert_close(result.vcov_classical, classical)

    @settings(deadline=None, max_examples=100)
    @given(sparse_saturated_fits())
    def test_aggregates_average_only_identified_fields(self, case):
        frame, spec = case
        x = build_design(frame, spec)
        result = fit(x, cell_statistics(x, frame.y), on_rank_deficiency="drop")
        aggregates = recover_effect_table(result, t_grid=()).aggregates
        means, counts = cell_means(frame), np.bincount(frame.f)
        for target, name, skipped in zip(("direct", "network", "interaction"),
                                         ("delta0", "tau0", "tau_pm"), aggregates.skipped_units):
            kept = [f for f in np.flatnonzero(counts) if name in identified_effects(means, f, 1)]
            assert skipped == frame.n_selected - counts[kept].sum()
            got = getattr(aggregates, target)
            if not kept:
                assert got is None
                continue
            want = sum(counts[f] * cell_mean_contrast(means, f, 1, name)
                       for f in kept) / counts[kept].sum()
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_linear_design_with_an_all_zero_column_names_it(self):
        # no unit has a treated friend, so the T column of the t model is zero
        frame = make_frame([0.5, 1.5, 2.5, 3.0, 1.0], [0, 1, 0, 1, 1], [0] * 5, [1, 1, 2, 3, 2])
        x = build_design(frame, ModelSpec.t_model())
        assert not x.cell_values[:, x.labels.index("T")].any()
        with pytest.raises(RankDeficiencyError) as info:
            fit(x, cell_statistics(x, frame.y))
        assert info.value.dependent_columns == ("T",)
        dropped = fit(x, cell_statistics(x, frame.y), on_rank_deficiency="drop")
        assert dropped.dropped_columns == ("T",) and dropped.min_pivot_ratio is not None


@st.composite
def float_blocks(draw):
    """Float blocks as a design's diagonal blocks come: random, with exact
    twin columns, with all-zero columns, wide (m < n), without rows, or of
    rank below their width."""
    kind = draw(st.sampled_from(["random", "twins", "zero_columns", "wide", "no_rows", "low_rank"]))
    m = 0 if kind == "no_rows" else draw(st.integers(1, 12))
    k = draw(st.integers(1, 8))
    if kind == "wide":
        m, k = draw(st.integers(1, 5)), draw(st.integers(6, 9))
    elements = st.floats(-100.0, 100.0, allow_nan=False, width=64)
    a = draw(hnp.arrays(np.float64, (m, k), elements=elements))
    if kind == "twins" and k > 1:
        a[:, draw(st.integers(1, k - 1))] = a[:, 0]
    if kind == "zero_columns":
        a[:, draw(st.lists(st.integers(0, k - 1), min_size=1))] = 0.0
    if kind == "low_rank":
        rank = draw(st.integers(1, max(1, min(m, k) - 1)))
        a = draw(hnp.arrays(np.float64, (m, rank), elements=elements)) \
            @ draw(hnp.arrays(np.float64, (rank, k), elements=elements))
    return a


def rank_of(r):
    """The rank rule of :func:`fit` on one block's R."""
    diag = np.abs(np.diag(r))
    if not diag.size or diag[0] == 0.0:
        return 0
    below = diag <= DEFAULT_RANK_TOL * diag[0]
    return int(np.argmax(below)) if below.any() else int(diag.size)


class TestDirectLapack:
    """The factorization and the triangular solves call LAPACK directly and
    give scipy's numbers bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(float_blocks())
    @example(np.zeros((0, 4)))
    @example(np.zeros((5, 0)))
    @example(np.zeros((0, 0)))
    def test_pivoted_qr_equals_scipy(self, a):
        want = scipy.linalg.qr(a, mode="economic", pivoting=True, check_finite=False)
        got = _pivoted_qr(a.copy())
        for g, w in zip(got, want):
            assert np.array_equal(g, w) and same_bits(g, w)
        assert got[1].flags.f_contiguous == want[1].flags.f_contiguous

    @settings(deadline=None, max_examples=300)
    @given(float_blocks(), st.data())
    def test_triangular_solve_equals_scipy(self, a, data):
        _, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True, check_finite=False)
        rank = rank_of(r)
        if rank == 0:
            return
        r = r[:rank, :rank]
        b = data.draw(hnp.arrays(np.float64, rank,
                                 elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)))
        # upper R as the QR gives it, and lower R' in both memory orders
        for t, lower in ((r, False), (r.T, True), (np.ascontiguousarray(r.T), True)):
            want = scipy.linalg.solve_triangular(t, b, lower=lower, check_finite=False)
            got = _solve_triangular(t, b.copy(), lower=lower)
            assert np.array_equal(got, want) and same_bits(got, want)

    @settings(deadline=None, max_examples=100)
    @given(float_blocks())
    def test_triangular_inverse_equals_scipy(self, a):
        _, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True, check_finite=False)
        rank = rank_of(r)
        if rank == 0:
            return
        r = r[:rank, :rank]
        got, want = _lapack.dtrtri(r), scipy.linalg.lapack.dtrtri(r)
        assert got[1] == want[1] == 0 and same_bits(got[0], want[0])


class TestResultsOnDemand:
    def test_multi_outcome_fit_gathers_no_unit_level_results(self):
        frame = saturated_frame(27)
        x = build_design(frame, ModelSpec.crf1_long())
        y = np.column_stack([frame.y, 3.0 - frame.y, frame.f * 0.25])
        result = fit(x, cell_statistics(x, y), on_rank_deficiency="drop")
        recover_effect_table(result, t_grid=())
        # a fit keeps its cell statistics and nothing of unit length
        assert "cell_fitted" not in result.__dict__ and "values" not in x.__dict__
        assert not any(hasattr(result, name) for name in ("y", "fitted", "residuals"))
        assert [name for name, value in vars(result).items()
                if isinstance(value, np.ndarray) and x.n_rows in value.shape] == []

    def test_variances_do_not_depend_on_when_residuals_are_read(self):
        # the per-cell residual sums are the same whether the cell fits are
        # read before the variances or not, and the fit keeps its own copies
        frame = saturated_frame(28)
        stats = cell_statistics(build_design(frame, ModelSpec.tr_model()), frame.y)
        first = fit(build_design(frame, ModelSpec.tr_model()), stats)
        cell_fitted = first.cell_fitted
        stats.values[:] = 0.0
        stats.within[:] = 0.0
        second = fit(build_design(frame, ModelSpec.tr_model()), frame.cell_sums())
        robust, classical = second.vcov_robust, second.vcov_classical
        assert "cell_fitted" in second.__dict__
        assert same_bits(first.vcov_robust, robust)
        assert same_bits(first.vcov_classical, classical)
        assert same_bits(cell_fitted, second.cell_fitted)


class TestFitFromCellSums:
    """A fit of a frame's own :class:`CellSums` (:meth:`SampleFrame.cell_sums`)
    is the fit of the test suite's independent reduction of its unit-level
    outcome, variances included."""

    @pytest.mark.parametrize("text", ["t", "r", "tr", "crf2:J=2", "crf2:J=1,t_order=2",
                                      "crf1long", "crf1long:f_max=7,t_max=7", "crf1short:f=4"])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_equals_the_unit_level_fit(self, text, seed):
        frame = saturated_frame(seed)
        spec = parse_model_spec(text)
        if spec.f is not None:
            frame = frame.restrict_to_f(spec.f)
        x = build_design(frame, spec)
        second = 0.5 - frame.y * frame.t
        from_units = [fit(x, dataclasses.replace(frame, y=y).cell_sums(),
                          on_rank_deficiency="drop") for y in (frame.y, second)]
        from_sums = fit(x, cell_statistics(x, frame.y), on_rank_deficiency="drop")
        for name in ("coefficients", "cell_fitted", "vcov_classical", "vcov_robust"):
            assert same_bits(getattr(from_sums, name), getattr(from_units[0], name)), name
        both = fit(x, cell_statistics(x, np.column_stack([frame.y, second])),
                   on_rank_deficiency="drop")
        for j, one in enumerate(from_units):
            assert same_bits(both.coefficients[:, j], one.coefficients)
            assert same_bits(both.cell_fitted[:, j], one.cell_fitted[:, 0])
            for result in (from_sums, both):
                assert result.rank == one.rank
                assert result.dropped_columns == one.dropped_columns
                assert result.min_pivot_ratio == one.min_pivot_ratio

    @pytest.mark.parametrize("read", [
        lambda r: r.y, lambda r: r.fitted, lambda r: r.residuals,
        lambda r: r.design.to_units, lambda r: r.design.cell_sums,
    ])
    @pytest.mark.parametrize("text", ["tr", "crf1long"])
    def test_unit_level_results_raise(self, read, text):
        # a fit keeps its cell statistics only: no unit-level outcome,
        # fitted values or residuals, and no way to gather them
        frame = saturated_frame(33)
        x = build_design(frame, parse_model_spec(text))
        for result in (fit(x, frame.cell_sums(), on_rank_deficiency="drop"),
                       fit(x, cell_statistics(x, frame.y), on_rank_deficiency="drop")):
            with pytest.raises(AttributeError):
                read(result)

    @pytest.mark.parametrize("text", ["t", "tr", "crf2:J=2", "crf1long"])
    def test_one_scenario_draw_equals_the_unit_level_fit(self, network_1000, text):
        # the draw's statistics n_c mu_c + sigma Z_c and sigma^2 W_c are its
        # gathered outcome's to roundoff, and so are the fit and both variances
        draw = simulate_cells(network_1000, (dgp_scenario("iv", noise_sd=1.5),), 17)
        stats = draw.cell_sums()
        spec = parse_model_spec(text)
        policy = "drop" if spec.saturated else "error"
        from_draw = fit(build_design(draw, spec), CellSums(stats.values[:, 0], stats.within[:, 0]),
                        on_rank_deficiency=policy)
        frame = simulate_frame(network_1000, dgp_scenario("iv", noise_sd=1.5), 17)
        x = build_design(frame, spec)
        from_units = fit(x, cell_statistics(x, frame.y), on_rank_deficiency=policy)
        assert from_draw.dropped_columns == from_units.dropped_columns
        kept = ~np.isnan(from_units.coefficients)
        for name in ("vcov_classical", "vcov_robust"):
            want = getattr(from_units, name)
            assert np.abs(getattr(from_draw, name) - want).max() <= 1e-12 * np.abs(want).max()
        want = from_units.coefficients[kept]
        assert np.abs(from_draw.coefficients[kept] - want).max() <= 1e-12 * np.abs(want).max()

    def test_bad_sums_rejected(self):
        frame = saturated_frame(34)
        x = build_design(frame, ModelSpec.t_model())
        stats = cell_statistics(x, frame.y)
        with pytest.raises(ValueError, match="shape"):
            fit(x, CellSums(stats.values[1:], stats.within[1:]))
        with pytest.raises(ValueError, match="shape"):
            CellSums(stats.values, stats.within[1:])
        with pytest.raises(ValueError, match=">= 0"):
            CellSums(stats.values, np.where(np.arange(x.n_cells) == 2, -1e-300, stats.within))
        with pytest.raises(ValueError, match=">= 0"):
            CellSums(stats.values, np.full(x.n_cells, np.nan))
        stats.values[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            fit(x, stats)


def assert_unit_level_hc0(result, x, y):
    """The robust variance has a nonnegative diagonal and is the unit-level
    HC0 sandwich (X'X)^-1 X' diag(e^2) X (X'X)^-1 on the retained columns,
    with residuals e from lstsq, to 1e-10 of its largest entry."""
    robust = result.vcov_robust
    assert (np.diag(robust) >= 0).all()
    if result.vcov_classical is not None:
        assert (np.diag(result.vcov_classical) >= 0).all()
    retained = np.flatnonzero(~np.isnan(result.coefficients))
    cols = x.values[:, retained]
    residuals = y - cols @ np.linalg.lstsq(cols, y, rcond=None)[0]
    want = sandwich(x, retained, residuals)[1]
    # where every residual is 0 the oracle's lstsq leaves ~1e-16 of roundoff
    assert np.abs(robust - want).max() <= max(1e-10 * np.abs(want).max(), 1e-20)


class TestRobustVariance:
    """The robust variance is a Gram matrix of the cell rows: never a negative
    diagonal entry, and equal to the unit-level HC0 oracle."""

    @settings(deadline=None, max_examples=150)
    @given(sparse_saturated_fits())
    def test_saturated_fits_equal_the_unit_level_oracle(self, case):
        frame, spec = case
        x = build_design(frame, spec)
        assert_unit_level_hc0(fit(x, cell_statistics(x, frame.y), on_rank_deficiency="drop"),
                              x, frame.y)

    @settings(deadline=None, max_examples=150)
    @given(duplicated_frames(), st.sampled_from(["t", "r", "tr", "crf2:J=1"]))
    def test_linear_designs_equal_the_unit_level_oracle(self, frame, text):
        x = build_design(frame, parse_model_spec(text))
        result = fit(x, cell_statistics(x, frame.y), on_rank_deficiency="drop")
        if result.rank and np.linalg.cond(x.values[:, ~np.isnan(result.coefficients)]) < 1e4:
            assert_unit_level_hc0(result, x, frame.y)
