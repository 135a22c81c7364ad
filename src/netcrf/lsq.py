"""Ordinary least squares with rank diagnostics; the shared numerical core.

A saturated dummy design keeps the columns of its occupied cells; every
other design goes through one column-pivoted QR with tolerance-based rank
detection (``rank_tol`` applies to these only). Rank-deficient designs
either raise (policy ``error``, appropriate for the linear models, which
should never be silently altered) or drop the columns left out (policy
``drop``, appropriate for saturated dummy designs whose empty cells
legitimately produce zero columns). Normal equations exist in the test
suite only, as an independent oracle.

**Cells.** A design stores one row ``x_c`` per cell ``c`` with its unit
count ``n_c`` (:class:`DesignMatrix`); :func:`build_design` makes a cell of
every occupied (d, t, f) combination, so a frame of ~2000 units has ~100
cells. Writing ``ybar_c`` for the cell mean of ``y``,

    ||y - X b||^2 = sum_c n_c (ybar_c - x_c'b)^2 + sum_i (y_i - ybar_c(i))^2,

and the last sum does not depend on ``b``. Least squares on the units is
therefore least squares on the rows ``sqrt(n_c) x_c`` with outcome
``sum_{i in c} y_i / sqrt(n_c)``: the same ``R``, pivots, rank and
coefficients, from a QR whose size is the number of cells. Fitted values
and residuals are the cell fits repeated for each unit. The sufficient
statistics are, per cell, the count, the sum of ``y`` and, for the robust
variance, the sum of squared residuals: its meat is
``sum_c (sum_{i in c} e_i^2) x_c x_c'``. The classical variance keeps
``n - rank`` residual degrees of freedom over units. A design built
directly from a matrix has one cell per row with count 1 and is fitted
with the same arithmetic as a unit-level design.

:func:`fit` takes the unit-level ``y``, whose cell sums it makes with
:meth:`DesignMatrix.cell_sums`, or the caller's cell sums directly
(:class:`CellSums`), as a Monte Carlo replication that draws its outcomes
by cell passes them. Either way one core fits from the sums, so the same
sums give the same coefficients bit for bit.

**Saturated designs.** A ``crf1long`` or ``crf1short`` design has one
column per possible (d, t, f) cell, and each column has an *own cell*, the
lowest cell in (f, t, d) order that it reaches: ``F=f`` (or ``1``) owns
(0, 0, f), ``D:F=f`` (or ``D``) owns (1, 0, f), ``T=t:F=f`` owns (0, t, f)
and ``D:T=t:F=f`` owns (1, t, f). :func:`build_design` records it
(:attr:`DesignMatrix.own_cell`), and every occupied cell owns exactly one
column. A fit keeps exactly the columns whose own cell is occupied and
drops the rest. In cell order, the kept columns make the weighted cell rows
square and lower triangular, with ``sqrt(n_c)`` on the diagonal, so the fit
needs no QR and no tolerance: the coefficients are one triangular solve per
outcome, the fitted values are the cell means, the rank is the number of
occupied cells and ``min_pivot_ratio`` is None.

**Other designs** are one pivoted QR of the weighted cell rows
(:attr:`DesignMatrix.qr`), computed by the first fit of a matrix and reused
by every later fit of the same matrix. **Rank rule:** the fit keeps the
leading pivots whose magnitude exceeds ``rank_tol`` times the largest and
drops the rest; ``min_pivot_ratio`` reports the smallest retained pivot
relative to the largest, i.e. how close the fit came to dropping another
column.

**Inverse.** Both kinds end with one triangular factor ``T`` over the kept
columns, ``R`` of the QR or the square saturated one, and ``(X'X)^-1`` is
``T^-1 T^-T``, with ``T^-1`` from LAPACK ``dtrtri``.
``solve_triangular(T, I)`` gives the same numbers to roundoff, but its
matrix right-hand side goes to OpenBLAS's threaded level-3 ``trsm``, which
first wakes the BLAS threads that fell asleep between fits. In a loop of
``fit`` runs with six specs on N=2000 networks (2-vCPU VM, two OpenBLAS
threads) those wake-ups took ~28 ms of a ~62 ms run; the median call took
19 us, the slowest 16 ms. ``dpotri`` is no way around it, because OpenBLAS
threads its ``lauum``.

``y`` may also hold several outcomes as columns, shape ``(n, s)`` as in
``numpy.linalg.lstsq``; one call then computes the rank and the dropped
columns once and solves each column with exactly the one-outcome
arithmetic (its own right-hand side and triangular solve), so a column's
numbers never depend on the columns fitted alongside it.

**On demand.** A fit stores the per-cell sums of its outcomes. The cell
fits, the unit-level ``fitted`` and ``residuals`` (an n x s gather and
subtraction) and the variance matrices are computed on first read, so
callers that read only the coefficients, such as a Monte Carlo
replication, never pay for them. The variance matrices, ``coef`` and the
JSON form need a one-outcome fit. A fit made from :class:`CellSums` has no
unit-level outcome: reading its ``fitted``, ``residuals`` or a variance
raises ValueError.

**LAPACK directly.** The factorization (:attr:`DesignMatrix.qr`) and the
triangular solves call LAPACK ``dgeqp3``/``dorgqr`` and ``dtrtrs``, and the
inverse ``dtrtri``, with the arguments, workspace queries and
transpositions of ``scipy.linalg.qr(mode="economic", pivoting=True)`` and
``scipy.linalg.solve_triangular``, so the numbers are scipy's bit for bit.
On a cell design of ~100 x 10 scipy's per-call validation costs more than
the arithmetic: it was ~0.8 ms of a ~6.3 ms ``table1`` replication. The
routines are scipy's own f2py wrappers, reached through
:mod:`netcrf._lapack`, which loads them without importing the
``scipy.linalg`` package and so halves a process's start-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _lapack
from .design import DesignMatrix
from .dgp import check_finite_y
from .errors import NumericalError, RankDeficiencyError

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class CellSums:
    """Per-cell sums of the outcome, ``(n_cells,)`` or ``(n_cells, s)`` in the
    cell order of the design, which :func:`fit` takes in place of a
    unit-level ``y``."""

    values: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """OLS output: coefficients (NaN where a column was dropped), diagnostics,
    residuals, and both variance estimates over the retained columns.

    For an ``(n, s)`` outcome, ``coefficients`` is ``(k, s)`` and
    ``residuals``/``fitted`` are ``(n, s)``, one column per outcome.
    ``min_pivot_ratio`` is the smallest retained pivot of the QR over its
    largest (None at rank 0 and for a saturated design). ``factor`` is the
    triangular factor over the retained columns, lower for a saturated
    design and upper otherwise, and ``factor_columns`` the design columns in
    its order. ``cell_sums`` holds the outcome's sum over each design cell,
    ``(n_cells, s)``. ``cell_fitted``, the fitted value of each cell, is
    computed on first read, and ``fitted`` and ``residuals`` repeat it for
    each unit. ``y`` is None for a fit made from :class:`CellSums`, which
    has no unit-level results.
    """

    coefficients: np.ndarray
    labels: tuple[str, ...]
    rank: int
    dropped_columns: tuple[str, ...]
    n: int
    min_pivot_ratio: float | None
    factor: np.ndarray = field(repr=False, compare=False)
    factor_columns: np.ndarray = field(repr=False, compare=False)
    design: DesignMatrix = field(repr=False, compare=False)
    y: np.ndarray | None = field(repr=False, compare=False)
    cell_sums: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def cell_fitted(self) -> np.ndarray:
        x, kept = self.design, self.factor_columns
        if self.rank == 0:
            return np.zeros(self.cell_sums.shape)
        if x.own_cell is not None:
            return self.cell_sums / x.cell_counts[:, None]
        retained = x.cell_values[:, kept]
        coefficients = self.coefficients.reshape(len(self.labels), -1)
        return np.column_stack([retained @ coefficients[kept, j]
                                for j in range(coefficients.shape[1])])

    @cached_property
    def fitted(self) -> np.ndarray:
        self._unit_level("fitted")
        fitted = self.design.to_units(self.cell_fitted)
        return fitted if self.y.ndim == 2 else fitted[:, 0]

    @cached_property
    def residuals(self) -> np.ndarray:
        self._unit_level("residuals")
        return self.y - self.fitted

    def _unit_level(self, what: str) -> None:
        if self.y is None:
            raise ValueError(f"{what} needs the unit-level outcome; this fit was made from "
                             "cell sums")

    @property
    def n_outcomes(self) -> int | None:
        """Outcome columns of a multi-outcome fit; None for a one-outcome fit."""
        return None if self.coefficients.ndim == 1 else int(self.coefficients.shape[1])

    def _one_outcome(self, what: str) -> None:
        if self.n_outcomes is not None:
            raise ValueError(f"{what} needs a one-outcome fit, got {self.n_outcomes} outcomes")

    @cached_property
    def _xtx_inv(self) -> np.ndarray:
        """(X'X)^-1 over the retained columns, in ascending column order."""
        t_inv, info = _lapack.dtrtri(self.factor, lower=self.design.own_cell is not None)
        if info != 0:
            labels = ", ".join(self.labels[i] for i in self.factor_columns)
            raise NumericalError(f"cannot invert the triangular factor of columns {labels}: "
                                 f"LAPACK dtrtri info={info}")
        order = np.argsort(self.factor_columns)
        return (t_inv @ t_inv.T)[np.ix_(order, order)]

    @cached_property
    def vcov_classical(self) -> np.ndarray | None:
        """s^2 (X'X)^-1, or None when n <= rank leaves no residual degrees of freedom."""
        self._one_outcome("vcov_classical")
        self._unit_level("vcov_classical")
        if self.rank == 0:
            return np.zeros((0, 0))
        if self.n <= self.rank:
            return None
        s2 = float(self.residuals @ self.residuals) / (self.n - self.rank)
        return _symmetrize(s2 * self._xtx_inv)

    @cached_property
    def vcov_robust(self) -> np.ndarray:
        """Heteroskedasticity-consistent sandwich with squared-residual weights."""
        self._one_outcome("vcov_robust")
        self._unit_level("vcov_robust")
        if self.rank == 0:
            return np.zeros((0, 0))
        x = self.design
        residual_scale = np.sqrt(x.cell_sums(np.square(self.residuals)))
        weighted = x.cell_values[:, np.sort(self.factor_columns)] * residual_scale[:, None]
        inv = self._xtx_inv
        return _symmetrize(inv @ (weighted.T @ weighted) @ inv)

    def coef(self, label: str) -> float | None:
        """Coefficient by column label; None when the column was dropped."""
        self._one_outcome("coef")
        value = self.coefficients[self.labels.index(label)]
        return None if math.isnan(value) else float(value)

    def to_json_dict(self) -> dict:
        self._one_outcome("to_json_dict")
        return {
            "labels": list(self.labels),
            "coefficients": [None if math.isnan(c) else c for c in self.coefficients],
            "rank": self.rank,
            "min_pivot_ratio": self.min_pivot_ratio,
            "dropped_columns": list(self.dropped_columns),
            "n": self.n,
            "vcov_classical": None if self.vcov_classical is None else self.vcov_classical.tolist(),
            "vcov_robust": self.vcov_robust.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def fit(
    x: DesignMatrix,
    y: np.ndarray | CellSums,
    on_rank_deficiency: str = "error",
    rank_tol: float = DEFAULT_RANK_TOL,
) -> FitResult:
    """Least-squares fit of ``y``, shape ``(n,)`` or ``(n, s)``, on the columns of ``x``.

    ``y`` may instead be the outcome's sums per cell of ``x``
    (:class:`CellSums`); the fit is then the same arithmetic on the given
    sums, and its unit-level results and variances raise ValueError.

    A saturated design (``x.own_cell`` set) keeps the columns whose own cell
    is occupied. Any other design is factored by one pivoted QR
    (:attr:`DesignMatrix.qr`), and its rank is the number of leading pivots
    whose magnitude exceeds ``rank_tol`` times the largest. With
    ``on_rank_deficiency="drop"`` the other columns are reported in
    ``dropped_columns`` and their coefficients are NaN; with ``"error"`` a
    deficient design raises :class:`RankDeficiencyError` listing them. A
    non-finite ``y`` raises ValueError naming its first bad entry.
    """
    if on_rank_deficiency not in ("error", "drop"):
        raise ValueError(f"unknown rank policy {on_rank_deficiency!r}")
    n = x.n_rows
    if n < 1:
        raise ValueError("need at least one observation")
    if isinstance(y, CellSums):
        sums = np.asarray(y.values, dtype=float)
        if sums.ndim not in (1, 2) or sums.shape[0] != x.n_cells:
            raise ValueError(f"cell sums must have shape ({x.n_cells},) or ({x.n_cells}, s), "
                             f"got {sums.shape}")
        if not np.isfinite(sums).all():
            raise ValueError("cell sums must be finite")
        y, one_outcome = None, sums.ndim == 1
        sums = np.array(sums[:, None] if one_outcome else sums, order="F")  # the fit's own copy
    else:
        y = np.array(y, dtype=float)  # a copy: residuals read it after the caller is done
        if y.ndim not in (1, 2) or y.shape[0] != n:
            raise ValueError(f"y must have shape ({n},) or ({n}, s), got {y.shape}")
        check_finite_y(y)
        one_outcome = y.ndim == 1
        columns = np.asfortranarray(y[:, None] if one_outcome else y).T
        sums = np.empty((x.n_cells, columns.shape[0]), order="F")
        for j, column in enumerate(columns):
            sums[:, j] = x.cell_sums(column)

    # one core from here: the outcomes' per-cell sums are the columns of the F-ordered sums
    k = x.n_cols
    saturated = x.own_cell is not None
    min_pivot_ratio = None
    if saturated:
        # in cell order, the kept columns' weighted cell rows are square and lower triangular
        kept = np.flatnonzero(x.own_cell >= 0)
        kept = kept[np.argsort(x.own_cell[kept])]
        rank = kept.size
        factor = x.cell_values[:, kept] * x.cell_weights[:, None]
    else:
        q, r, pivots = x.qr
        diag = np.abs(np.diag(r))
        largest = diag[0] if diag.size else 0.0
        rank = 0
        if largest != 0.0:
            below = diag <= rank_tol * largest
            rank = int(np.argmax(below)) if below.any() else int(diag.size)
            min_pivot_ratio = float(diag[:rank].min() / largest)
        kept, factor = pivots[:rank], r[:rank, :rank]

    is_dropped = np.ones(k, dtype=bool)
    is_dropped[kept] = False
    dropped = tuple(x.labels[i] for i in np.flatnonzero(is_dropped))
    if dropped and on_rank_deficiency == "error":
        raise RankDeficiencyError(dropped)

    coefficients = np.full((k, sums.shape[1]), np.nan)
    for j, column in enumerate(sums.T if rank else ()):
        if saturated:
            beta = _solve_triangular(factor, column / x.cell_weights, lower=True)
        else:
            beta = _solve_triangular(factor, (q.T @ (column / x.cell_weights))[:rank], lower=False)
        coefficients[kept, j] = beta
    if one_outcome:
        coefficients = coefficients[:, 0]

    return FitResult(
        coefficients=coefficients,
        labels=x.labels,
        rank=rank,
        dropped_columns=dropped,
        n=n,
        min_pivot_ratio=min_pivot_ratio,
        factor=factor,
        factor_columns=kept,
        design=x,
        y=y,
        cell_sums=sums,
    )


def _solve_triangular(r: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """``scipy.linalg.solve_triangular(r, b, lower=lower, check_finite=False)``
    for a triangular ``r`` with a nonzero diagonal and a nonempty ``b``, bit
    for bit.

    Like scipy, it calls LAPACK ``dtrtrs`` on ``r`` when ``r`` is
    F-contiguous and otherwise solves the transposed system on ``r.T``, whose
    arithmetic differs in the last bits.
    """
    if r.flags.f_contiguous:
        x, info = _lapack.dtrtrs(r, b, lower=lower)
    else:
        x, info = _lapack.dtrtrs(r.T, b, lower=not lower, trans=1)
    if info != 0:
        raise NumericalError(f"LAPACK dtrtrs info={info}")
    return x


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)
