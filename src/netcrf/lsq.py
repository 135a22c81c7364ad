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
coefficients, from a QR whose size is the number of cells. So all a fit
needs of its outcome, and all it keeps, are per cell the sum and the sum of
squares about the cell mean, ``W_c`` (:class:`CellSums`). A cell's sum of
squared residuals is ``SSR_c = W_c + n_c (ybar_c - x_c'b)^2``; the classical
variance divides ``sum_c SSR_c`` by ``n - rank`` residual degrees of freedom
over units, and the robust (HC0) meat is ``sum_c SSR_c x_c x_c'``.

:func:`fit` takes the outcome as :class:`CellSums` only: a frame read from
a file makes them with :meth:`SampleFrame.cell_sums`, and a Monte Carlo
replication maps those of its frame's shared noise to every scenario's with
:func:`netcrf.dgp.scenario_cell_sums`.
One core fits from the statistics, so the same sums give the same
coefficients bit for bit.

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

:class:`CellSums` may hold several outcomes as columns, shape
``(n_cells, s)``; one call then computes the rank and the dropped columns
once and solves each column with exactly the one-outcome arithmetic (its
own right-hand side and triangular solve), so a column's numbers never
depend on the columns fitted alongside it.

**On demand.** The cell fits and the variance matrices are computed on
first read, so callers that read only the coefficients, such as a Monte
Carlo replication, never pay for them. The variance matrices, ``coef`` and
the JSON form need a one-outcome fit. The robust variance is the Gram matrix
``B'B`` of ``B = (sqrt(SSR_c) x_c) (X'X)^-1`` over the cell rows, so its
diagonal is a sum of squares and never negative.

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
from .dgp import CellSums
from .errors import NumericalError, RankDeficiencyError

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    """OLS output: coefficients (NaN where a column was dropped), diagnostics,
    and both variance estimates over the retained columns.

    For a fit of ``s`` outcomes (:class:`CellSums` of shape ``(n_cells, s)``),
    ``coefficients`` is ``(k, s)``, one column per outcome.
    ``min_pivot_ratio`` is the smallest retained pivot of the QR over its
    largest (None at rank 0 and for a saturated design). ``factor`` is the
    triangular factor over the retained columns, lower for a saturated
    design and upper otherwise, and ``factor_columns`` the design columns in
    its order. ``cell_sums`` and ``cell_within`` hold the outcomes' sums and
    sums of squares about the mean over each design cell, ``(n_cells, s)``;
    they are all the fit keeps of its outcomes. ``cell_fitted``, the fitted
    value of each cell, is computed on first read.
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
    cell_sums: np.ndarray = field(repr=False, compare=False)
    cell_within: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def cell_fitted(self) -> np.ndarray:
        x, kept = self.design, self.factor_columns
        if self.rank == 0:
            return np.zeros(self.cell_sums.shape)
        if x.own_cell is not None:
            return self.cell_sums / x.cells.counts[:, None]
        retained = x.cell_values[:, kept]
        coefficients = self.coefficients.reshape(len(self.labels), -1)
        return np.column_stack([retained @ coefficients[kept, j]
                                for j in range(coefficients.shape[1])])

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
    def _cell_ssr(self) -> np.ndarray:
        """Each cell's sum of squared residuals, ``W_c + n_c (ybar_c - fit_c)^2``."""
        counts = self.design.cells.counts
        gap = self.cell_sums[:, 0] / counts - self.cell_fitted[:, 0]
        return self.cell_within[:, 0] + counts * gap * gap

    @cached_property
    def vcov_classical(self) -> np.ndarray | None:
        """s^2 (X'X)^-1, or None when n <= rank leaves no residual degrees of freedom."""
        self._one_outcome("vcov_classical")
        if self.rank == 0:
            return np.zeros((0, 0))
        if self.n <= self.rank:
            return None
        s2 = float(self._cell_ssr.sum()) / (self.n - self.rank)
        return _symmetrize(s2 * self._xtx_inv)

    @cached_property
    def vcov_robust(self) -> np.ndarray:
        """Heteroskedasticity-consistent (HC0) sandwich, as the Gram matrix ``B'B``."""
        self._one_outcome("vcov_robust")
        if self.rank == 0:
            return np.zeros((0, 0))
        kept = np.sort(self.factor_columns)
        b = (self.design.cell_values[:, kept] * np.sqrt(self._cell_ssr)[:, None]) @ self._xtx_inv
        return _symmetrize(b.T @ b)

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
    sums: CellSums,
    on_rank_deficiency: str = "error",
    rank_tol: float = DEFAULT_RANK_TOL,
) -> FitResult:
    """Least-squares fit on the columns of ``x`` of the outcome whose
    statistics per cell of ``x`` are ``sums`` (:class:`CellSums`), of one
    outcome or of several as columns.

    A saturated design (``x.own_cell`` set) keeps the columns whose own cell
    is occupied. Any other design is factored by one pivoted QR
    (:attr:`DesignMatrix.qr`), and its rank is the number of leading pivots
    whose magnitude exceeds ``rank_tol`` times the largest. With
    ``on_rank_deficiency="drop"`` the other columns are reported in
    ``dropped_columns`` and their coefficients are NaN; with ``"error"`` a
    deficient design raises :class:`RankDeficiencyError` listing them.
    Non-finite sums raise ValueError, and any other outcome TypeError.
    """
    if not isinstance(sums, CellSums):
        raise TypeError(f"fit takes the outcome as CellSums, got {type(sums).__name__}; "
                        "make them with SampleFrame.cell_sums()")
    if on_rank_deficiency not in ("error", "drop"):
        raise ValueError(f"unknown rank policy {on_rank_deficiency!r}")
    values, within = sums.values, sums.within
    if values.ndim not in (1, 2) or values.shape[0] != x.n_cells:
        raise ValueError(f"cell sums must have shape ({x.n_cells},) or ({x.n_cells}, s), "
                         f"got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("cell sums must be finite")
    one_outcome = values.ndim == 1
    # the fit's own F-ordered copies, one column per outcome
    sums, within = (np.array(a[:, None] if one_outcome else a, order="F")
                    for a in (values, within))

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
        n=x.n_rows,
        min_pivot_ratio=min_pivot_ratio,
        factor=factor,
        factor_columns=kept,
        design=x,
        cell_sums=sums,
        cell_within=within,
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
