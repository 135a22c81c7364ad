"""Ordinary least squares with rank diagnostics; the shared numerical core.

Fitting goes through a column-pivoted QR factorization with tolerance-based
rank detection. Rank-deficient designs either raise (policy ``error``,
appropriate for the linear models, which should never be silently altered)
or drop the pivoted-out columns (policy ``drop``, appropriate for saturated
dummy designs whose empty cells legitimately produce zero columns). Normal
equations exist in the test suite only, as an independent oracle.

The factorization belongs to the design (:attr:`DesignMatrix.qr`): it is
computed by the first fit of a matrix and reused by every later fit of the
same matrix, so fitting several outcome vectors on one design costs one QR
plus a ``Q'y`` solve per vector. The variance matrices of a fit are computed
on first access, so callers that read only the coefficients never pay for
them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .design import DesignMatrix
from .errors import DegreesOfFreedomError, RankDeficiencyError

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    """OLS output: coefficients (NaN where a column was dropped), diagnostics,
    residuals, and both variance estimates over the retained columns."""

    coefficients: np.ndarray
    labels: tuple[str, ...]
    rank: int
    dropped_columns: tuple[str, ...]
    residuals: np.ndarray
    fitted: np.ndarray
    n: int
    design: DesignMatrix = field(repr=False, compare=False)

    @cached_property
    def _xtx_inv(self) -> np.ndarray:
        """(X'X)^-1 over the retained columns, in ascending column order."""
        _, r, pivots = self.design.qr
        rank = self.rank
        r_inv = scipy.linalg.solve_triangular(r[:rank, :rank], np.eye(rank))
        order = np.argsort(pivots[:rank])
        return (r_inv @ r_inv.T)[np.ix_(order, order)]

    @cached_property
    def vcov_classical(self) -> np.ndarray | None:
        """s^2 (X'X)^-1, or None when n <= rank leaves no residual degrees of freedom."""
        if self.rank == 0:
            return np.zeros((0, 0))
        if self.n <= self.rank:
            return None
        s2 = float(self.residuals @ self.residuals) / (self.n - self.rank)
        return _symmetrize(s2 * self._xtx_inv)

    @cached_property
    def vcov_robust(self) -> np.ndarray:
        """Heteroskedasticity-consistent sandwich with squared-residual weights."""
        if self.rank == 0:
            return np.zeros((0, 0))
        _, _, pivots = self.design.qr
        retained_cols = self.design.values[:, np.sort(pivots[:self.rank])]
        weighted = retained_cols * self.residuals[:, None]
        meat = weighted.T @ weighted
        return _symmetrize(self._xtx_inv @ meat @ self._xtx_inv)

    @property
    def retained_labels(self) -> tuple[str, ...]:
        dropped = set(self.dropped_columns)
        return tuple(label for label in self.labels if label not in dropped)

    def coef(self, label: str) -> float | None:
        """Coefficient by column label; None when the column was dropped."""
        value = self.coefficients[self.labels.index(label)]
        return None if math.isnan(value) else float(value)

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "coefficients": [None if math.isnan(c) else c for c in self.coefficients],
            "rank": self.rank,
            "dropped_columns": list(self.dropped_columns),
            "n": self.n,
            "vcov_classical": None if self.vcov_classical is None else self.vcov_classical.tolist(),
            "vcov_robust": self.vcov_robust.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def fit(
    x: DesignMatrix,
    y: np.ndarray,
    on_rank_deficiency: str = "error",
    rank_tol: float = DEFAULT_RANK_TOL,
) -> FitResult:
    """Least-squares fit of ``y`` on the columns of ``x``.

    Rank is the number of leading pivots whose magnitude exceeds
    ``rank_tol`` times the largest pivot. With ``on_rank_deficiency="drop"``
    the pivoted-out columns are reported in ``dropped_columns`` and their
    coefficients are NaN; with ``"error"`` a deficient design raises
    :class:`RankDeficiencyError` listing the dependent columns.
    """
    if on_rank_deficiency not in ("error", "drop"):
        raise ValueError(f"unknown rank policy {on_rank_deficiency!r}")
    y = np.asarray(y, dtype=float)
    n, k = x.values.shape
    if y.shape != (n,):
        raise ValueError(f"y must have length {n}, got shape {y.shape}")
    if n < 1:
        raise ValueError("need at least one observation")

    q, r, pivots = x.qr
    diag = np.abs(np.diag(r))
    largest = diag[0] if diag.size else 0.0
    if largest == 0.0:
        rank = 0
    else:
        below = diag <= rank_tol * largest
        rank = int(np.argmax(below)) if below.any() else int(diag.size)

    dropped_idx = pivots[rank:]
    dropped = tuple(x.labels[i] for i in sorted(dropped_idx))
    if dropped and on_rank_deficiency == "error":
        raise RankDeficiencyError(dropped)

    coefficients = np.full(k, np.nan)
    if rank > 0:
        qty = q.T @ y
        beta = scipy.linalg.solve_triangular(r[:rank, :rank], qty[:rank])
        coefficients[pivots[:rank]] = beta
        fitted = x.values[:, pivots[:rank]] @ beta
    else:
        fitted = np.zeros(n)
    residuals = y - fitted

    return FitResult(
        coefficients=coefficients,
        labels=x.labels,
        rank=rank,
        dropped_columns=dropped,
        residuals=residuals,
        fitted=fitted,
        n=n,
        design=x,
    )


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def vcov(result: FitResult, kind: str = "classical") -> np.ndarray:
    """Coefficient variance matrix over the retained columns.

    ``classical`` is s^2 (X'X)^-1 and needs n > rank; ``robust`` is the
    heteroskedasticity-consistent sandwich with squared-residual weights.
    """
    if kind == "classical":
        if result.vcov_classical is None:
            raise DegreesOfFreedomError(
                f"classical variance needs n > rank, got n={result.n}, rank={result.rank}"
            )
        return result.vcov_classical
    if kind == "robust":
        return result.vcov_robust
    raise ValueError(f"unknown vcov kind {kind!r}")
