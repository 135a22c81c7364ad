import numpy as np
import pytest

from netcrf import (
    DegreesOfFreedomError,
    DesignMatrix,
    RankDeficiencyError,
    fit,
    vcov,
)


def normal_equations_oracle(x, y):
    """Brute-force (X'X)^-1 X'y, the independent benchmark for fit()."""
    xtx = x.T @ x
    return np.linalg.solve(xtx, x.T @ y)


def random_system(rng, n=50, k=4):
    x = rng.standard_normal((n, k))
    x[:, 0] = 1.0
    beta = rng.standard_normal(k)
    y = x @ beta + 0.1 * rng.standard_normal(n)
    return DesignMatrix(values=x, labels=tuple(f"c{i}" for i in range(k))), y


class TestFit:
    def test_exact_recovery_two_columns(self):
        d = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        x = DesignMatrix(values=np.column_stack([np.ones(5), d]), labels=("1", "D"))
        result = fit(x, 3.0 + 2.0 * d)
        assert result.coef("1") == pytest.approx(3.0, abs=1e-12)
        assert result.coef("D") == pytest.approx(2.0, abs=1e-12)
        assert result.rank == 2

    def test_duplicated_column_dropped(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((30, 2))
        x = DesignMatrix(values=np.column_stack([np.ones(30), base, base[:, 0]]),
                         labels=("1", "a", "b", "a_copy"))
        y = rng.standard_normal(30)
        result = fit(x, y, on_rank_deficiency="drop")
        assert result.rank == 3
        assert len(result.dropped_columns) == 1
        assert result.dropped_columns[0] in ("a", "a_copy")
        assert result.coef(result.dropped_columns[0]) is None

    def test_duplicated_column_error_mode(self):
        x = DesignMatrix(values=np.column_stack([np.ones(10), np.ones(10)]),
                         labels=("1", "1_copy"))
        with pytest.raises(RankDeficiencyError) as info:
            fit(x, np.zeros(10))
        assert len(info.value.dependent_columns) == 1

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            x, y = random_system(rng)
            result = fit(x, y)
            expected = normal_equations_oracle(x.values, y)
            assert np.max(np.abs(result.coefficients - expected)) < 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(1)
        x, y = random_system(rng, n=200, k=6)
        result = fit(x, y)
        res_norm = np.linalg.norm(result.residuals)
        for col in range(x.n_cols):
            column = x.values[:, col]
            bound = 1e-8 * np.linalg.norm(column) * max(res_norm, 1.0)
            assert abs(column @ result.residuals) < bound

    def test_affine_equivariance(self):
        rng = np.random.default_rng(2)
        x, y = random_system(rng, n=80, k=5)
        base = fit(x, y)
        a = 3.5
        c = rng.standard_normal(5)
        shifted = fit(x, a * y + x.values @ c)
        assert np.max(np.abs(shifted.coefficients - (a * base.coefficients + c))) < 1e-9

    def test_idempotence_on_fitted_values(self):
        rng = np.random.default_rng(3)
        x, y = random_system(rng)
        first = fit(x, y)
        second = fit(x, first.fitted)
        assert np.max(np.abs(second.coefficients - first.coefficients)) < 1e-10
        assert np.max(np.abs(second.residuals)) < 1e-10

    def test_dimension_mismatch(self):
        x = DesignMatrix(values=np.ones((4, 1)), labels=("1",))
        with pytest.raises(ValueError):
            fit(x, np.ones(5))

    def test_unknown_policy(self):
        x = DesignMatrix(values=np.ones((4, 1)), labels=("1",))
        with pytest.raises(ValueError):
            fit(x, np.ones(4), on_rank_deficiency="ignore")

    def test_all_zero_column_dropped(self):
        x = DesignMatrix(values=np.column_stack([np.ones(12), np.zeros(12)]),
                         labels=("1", "empty"))
        result = fit(x, np.arange(12.0), on_rank_deficiency="drop")
        assert result.dropped_columns == ("empty",)
        assert result.coef("1") == pytest.approx(5.5)

    def test_shared_design_fits_equal_fresh_fits_bitwise(self):
        rng = np.random.default_rng(9)
        x, y1 = random_system(rng, n=200, k=5)
        y2 = rng.standard_normal(200)
        shared = [fit(x, y1), fit(x, y2)]
        fresh = [fit(DesignMatrix(values=x.values.copy(), labels=x.labels), y) for y in (y1, y2)]
        for a, b in zip(shared, fresh):
            for name in ("coefficients", "residuals", "fitted", "vcov_classical", "vcov_robust"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert not np.array_equal(shared[0].coefficients, shared[1].coefficients)

    def test_design_values_are_read_only(self):
        rng = np.random.default_rng(10)
        raw = rng.standard_normal((20, 2))
        x = DesignMatrix(values=raw, labels=("a", "b"))
        raw[0, 0] = 99.0  # the design keeps its own copy
        assert x.values[0, 0] != 99.0
        with pytest.raises(ValueError):
            x.values[0, 0] = 1.0

    def test_serialization(self):
        rng = np.random.default_rng(4)
        x, y = random_system(rng)
        payload = fit(x, y).to_json_dict()
        assert payload["rank"] == 4
        assert len(payload["coefficients"]) == 4


class TestVcov:
    def test_scaling_law(self):
        rng = np.random.default_rng(5)
        x, y = random_system(rng, n=120)
        v1 = vcov(fit(x, y), "classical")
        v2 = vcov(fit(x, 2.0 * y), "classical")
        assert np.max(np.abs(v2 - 4.0 * v1)) < 1e-10 * np.max(np.abs(v1))
        r1 = vcov(fit(x, y), "robust")
        r2 = vcov(fit(x, 2.0 * y), "robust")
        assert np.max(np.abs(r2 - 4.0 * r1)) < 1e-10 * np.max(np.abs(r1))

    def test_zero_residual_fit_has_zero_classical_vcov(self):
        d = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        x = DesignMatrix(values=np.column_stack([np.ones(6), d]), labels=("1", "D"))
        result = fit(x, 1.0 + 2.0 * d)
        assert np.max(np.abs(vcov(result, "classical"))) < 1e-20
        assert np.max(np.abs(vcov(result, "robust"))) < 1e-20

    def test_homoskedastic_classical_close_to_robust(self):
        rng = np.random.default_rng(6)
        n = 10_000
        x_mat = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = x_mat @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(n)
        result = fit(DesignMatrix(values=x_mat, labels=("1", "a", "b")), y)
        classical = np.diag(vcov(result, "classical"))
        robust = np.diag(vcov(result, "robust"))
        assert np.all(np.abs(robust / classical - 1.0) < 0.2)

    def test_saturated_fit_raises_dof_error(self):
        x = DesignMatrix(values=np.eye(3), labels=("a", "b", "c"))
        result = fit(x, np.arange(3.0))
        with pytest.raises(DegreesOfFreedomError):
            vcov(result, "classical")
        assert vcov(result, "robust").shape == (3, 3)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        x, y = random_system(rng, n=300, k=5)
        for kind in ("classical", "robust"):
            v = vcov(fit(x, y), kind)
            assert np.max(np.abs(v - v.T)) == 0.0
            assert np.min(np.linalg.eigvalsh(v)) > -1e-12

    def test_unknown_kind(self):
        rng = np.random.default_rng(8)
        x, y = random_system(rng)
        with pytest.raises(ValueError):
            vcov(fit(x, y), "cluster")
