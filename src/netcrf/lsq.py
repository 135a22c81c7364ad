"""Ordinary least squares with rank diagnostics; the shared numerical core.

Fitting goes through column-pivoted QR factorizations with tolerance-based
rank detection. Rank-deficient designs either raise (policy ``error``,
appropriate for the linear models, which should never be silently altered)
or drop the pivoted-out columns (policy ``drop``, appropriate for saturated
dummy designs whose empty cells legitimately produce zero columns). Normal
equations exist in the test suite only, as an independent oracle.

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

The factorization belongs to the design (:attr:`DesignMatrix.qr`): it is
computed by the first fit of a matrix and reused by every later fit of the
same matrix. It is one pivoted QR per diagonal block of the weighted cell
rows, a block being a connected set of rows and columns in the nonzero
pattern. Every linear design has a column without zeros (``1`` or ``F^0``)
and is one block; a ``crf1long`` design has one block per friend count.
**Rank rule:** a block keeps its leading pivots whose magnitude exceeds ``rank_tol`` times that
block's largest pivot and drops the rest; the fit's rank is the sum over
blocks, and ``dropped_columns`` the union. Coefficients, fitted values,
residuals, ``(X'X)^-1`` and both variance matrices assemble block by block,
so no product runs over the whole design; ``min_pivot_ratio`` reports the
smallest retained pivot relative to its block's largest, i.e. how close the
fit came to dropping another column.

**Inverse.** A block's ``(X'X)^-1`` over its retained columns is
``R^-1 R^-T``, with ``R^-1`` from LAPACK ``dtrtri``: for blocks of up to
~20 columns that is unblocked level-2 work on the calling thread.
``solve_triangular(R, I)`` gives the same numbers to roundoff, but its
matrix right-hand side goes to OpenBLAS's threaded level-3 ``trsm``, which
first wakes the BLAS threads that fell asleep between fits. In a loop of
``fit`` runs with six specs on N=2000 networks (2-vCPU VM, two OpenBLAS
threads) those wake-ups took ~28 ms of a ~62 ms run; the median call took
19 us, the slowest 16 ms. ``dpotri`` is no way around it, because OpenBLAS
threads its ``lauum``.

``y`` may also hold several outcomes as columns, shape ``(n, s)`` as in
``numpy.linalg.lstsq``; one call then computes the rank and the dropped
columns once and solves each column with exactly the one-outcome
arithmetic (its own ``Q'y`` and triangular solve per block), so a column's
numbers never depend on the columns fitted alongside it.

**On demand.** A fit stores its cell fits; the unit-level ``fitted`` and
``residuals`` (an n x s gather and subtraction) and the variance matrices
are computed on first read, so callers that read only the coefficients,
such as a Monte Carlo replication, never pay for them. The variance
matrices, ``coef`` and the JSON form need a one-outcome fit.

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
from .design import DesignMatrix, QRBlock
from .dgp import check_finite_y
from .errors import NumericalError, RankDeficiencyError

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    """OLS output: coefficients (NaN where a column was dropped), diagnostics,
    residuals, and both variance estimates over the retained columns.

    For an ``(n, s)`` outcome, ``coefficients`` is ``(k, s)`` and
    ``residuals``/``fitted`` are ``(n, s)``, one column per outcome.
    ``block_ranks`` holds the rank of each block of ``design.qr``, and
    ``min_pivot_ratio`` the smallest retained pivot over its block's largest
    (None at rank 0). ``cell_fitted`` holds the fitted value of each design
    cell, ``(n_cells, s)``; ``fitted`` and ``residuals`` repeat it for each
    unit on first read.
    """

    coefficients: np.ndarray
    labels: tuple[str, ...]
    rank: int
    dropped_columns: tuple[str, ...]
    n: int
    min_pivot_ratio: float | None
    block_ranks: tuple[int, ...] = field(repr=False)
    design: DesignMatrix = field(repr=False, compare=False)
    y: np.ndarray = field(repr=False, compare=False)
    cell_fitted: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def fitted(self) -> np.ndarray:
        fitted = self.design.to_units(self.cell_fitted)
        return fitted if self.y.ndim == 2 else fitted[:, 0]

    @cached_property
    def residuals(self) -> np.ndarray:
        return self.y - self.fitted

    @property
    def n_outcomes(self) -> int | None:
        """Outcome columns of a multi-outcome fit; None for a one-outcome fit."""
        return None if self.coefficients.ndim == 1 else int(self.coefficients.shape[1])

    def _one_outcome(self, what: str) -> None:
        if self.n_outcomes is not None:
            raise ValueError(f"{what} needs a one-outcome fit, got {self.n_outcomes} outcomes")

    @cached_property
    def _blocks(self) -> list[tuple[QRBlock, np.ndarray, np.ndarray]]:
        """Per block with retained columns: the block, those columns ascending,
        and their (X'X)^-1 in that order."""
        out = []
        for block, rank in zip(self.design.qr, self.block_ranks):
            if rank == 0:
                continue
            r_inv, info = _lapack.dtrtri(block.r[:rank, :rank])
            if info != 0:
                labels = ", ".join(self.labels[i] for i in block.columns[block.pivots[:rank]])
                raise NumericalError(f"cannot invert R of the block with columns {labels}: "
                                     f"LAPACK dtrtri info={info}")
            order = np.argsort(block.pivots[:rank])
            out.append((block, np.sort(block.columns[block.pivots[:rank]]),
                        (r_inv @ r_inv.T)[np.ix_(order, order)]))
        return out

    def _block_diagonal(self, pieces) -> np.ndarray:
        """Assemble per-block square matrices over all retained columns, ascending."""
        retained = np.sort(np.concatenate([cols for _, cols, _ in self._blocks]))
        out = np.zeros((self.rank, self.rank))
        for (_, cols, _), piece in zip(self._blocks, pieces):
            at = np.searchsorted(retained, cols)
            out[np.ix_(at, at)] = piece
        return out

    @cached_property
    def _xtx_inv(self) -> np.ndarray:
        """(X'X)^-1 over the retained columns, in ascending column order."""
        return self._block_diagonal([inv for _, _, inv in self._blocks])

    @cached_property
    def vcov_classical(self) -> np.ndarray | None:
        """s^2 (X'X)^-1, or None when n <= rank leaves no residual degrees of freedom."""
        self._one_outcome("vcov_classical")
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
        if self.rank == 0:
            return np.zeros((0, 0))
        x = self.design
        residual_scale = np.sqrt(x.cell_sums(np.square(self.residuals)))
        pieces = []
        for block, cols, inv in self._blocks:
            weighted = x.cell_values[block.rows][:, cols] * residual_scale[block.rows, None]
            meat = weighted.T @ weighted
            pieces.append(inv @ meat @ inv)
        return _symmetrize(self._block_diagonal(pieces))

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
    y: np.ndarray,
    on_rank_deficiency: str = "error",
    rank_tol: float = DEFAULT_RANK_TOL,
) -> FitResult:
    """Least-squares fit of ``y``, shape ``(n,)`` or ``(n, s)``, on the columns of ``x``.

    The design is factored block by block (:attr:`DesignMatrix.qr`). A
    block's rank is the number of its leading pivots whose magnitude exceeds
    ``rank_tol`` times the block's largest pivot; the fit's rank is their
    sum. With ``on_rank_deficiency="drop"`` the pivoted-out columns of
    every block are reported in ``dropped_columns`` and their
    coefficients are NaN; with ``"error"`` a deficient design raises
    :class:`RankDeficiencyError` listing the dependent columns. A non-finite
    ``y`` raises ValueError naming its first bad entry.
    """
    if on_rank_deficiency not in ("error", "drop"):
        raise ValueError(f"unknown rank policy {on_rank_deficiency!r}")
    y = np.array(y, dtype=float)  # a copy: residuals read it after the caller is done
    n, k = x.n_rows, x.n_cols
    if y.ndim not in (1, 2) or y.shape[0] != n:
        raise ValueError(f"y must have shape ({n},) or ({n}, s), got {y.shape}")
    if n < 1:
        raise ValueError("need at least one observation")
    check_finite_y(y)

    block_ranks, ratios = [], []
    for block in x.qr:
        diag = np.abs(np.diag(block.r))
        largest = diag[0] if diag.size else 0.0
        if largest == 0.0:
            block_ranks.append(0)
            continue
        below = diag <= rank_tol * largest
        block_ranks.append(int(np.argmax(below)) if below.any() else int(diag.size))
        ratios.append(diag[:block_ranks[-1]].min() / largest)
    rank = sum(block_ranks)

    dropped_idx = [i for b, r in zip(x.qr, block_ranks) for i in b.columns[b.pivots[r:]]]
    dropped = tuple(x.labels[i] for i in sorted(dropped_idx))
    if dropped and on_rank_deficiency == "error":
        raise RankDeficiencyError(dropped)

    columns = [y] if y.ndim == 1 else list(np.asfortranarray(y).T)
    cell_columns = [x.cell_sums(column) / x.cell_weights for column in columns]
    coefficients = np.full((k, len(columns)), np.nan)
    cell_fitted = np.zeros((x.n_cells, len(columns)))
    for block, block_rank in zip(x.qr, block_ranks):
        if block_rank == 0:
            continue
        kept = block.columns[block.pivots[:block_rank]]
        r = block.r[:block_rank, :block_rank]
        retained = x.cell_values[block.rows][:, kept]
        for j, column in enumerate(cell_columns):
            beta = _solve_upper(r, (block.q.T @ column[block.rows])[:block_rank])
            coefficients[kept, j] = beta
            cell_fitted[block.rows, j] = retained @ beta
    if y.ndim == 1:
        coefficients = coefficients[:, 0]

    return FitResult(
        coefficients=coefficients,
        labels=x.labels,
        rank=rank,
        dropped_columns=dropped,
        n=n,
        min_pivot_ratio=float(min(ratios)) if ratios else None,
        block_ranks=tuple(block_ranks),
        design=x,
        y=y,
        cell_fitted=cell_fitted,
    )


def _solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_triangular(r, b, check_finite=False)`` for an upper
    triangular ``r`` with a nonzero diagonal and a nonempty ``b``, bit for bit.

    Like scipy, it calls LAPACK ``dtrtrs`` on ``r`` when ``r`` is
    F-contiguous and otherwise solves the transposed system on ``r.T``, whose
    arithmetic differs in the last bits.
    """
    if r.flags.f_contiguous:
        x, info = _lapack.dtrtrs(r, b)
    else:
        x, info = _lapack.dtrtrs(r.T, b, lower=1, trans=1)
    if info != 0:
        raise NumericalError(f"LAPACK dtrtrs info={info}")
    return x


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)

