"""Design matrices for every estimator.

Column labels follow a small grammar: atoms joined by ``:`` multiply.
Atoms are ``1`` (constant), ``D``, ``T``, ``F``, ``R`` (= T/F), ``T^2``,
``F^j`` (j-th power), and the dummies ``F=k`` / ``T=k``. Recomputing a
column from raw (d, t, f) via its label reproduces the stored values, and
column order is fixed so coefficient positions are stable across runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

from .dgp import SampleFrame
from .errors import NumericalError, OutOfSupportError

_GEQP3, _ORGQR = get_lapack_funcs(("geqp3", "orgqr"), dtype=np.float64)


class ModelKind(str, Enum):
    T = "t"
    R = "r"
    TR = "tr"
    CRF2 = "crf2"
    CRF1_LONG = "crf1long"
    CRF1_SHORT = "crf1short"


@dataclass(frozen=True)
class ModelSpec:
    """One estimator specification.

    ``j``/``t_order`` apply to the power-function design, ``f_max``/``t_max``
    to the saturated long design, and ``f`` to the single-subsample short
    design.
    """

    kind: ModelKind
    j: int | None = None
    t_order: int = 1
    f_max: int | None = None
    t_max: int | None = None
    f: int | None = None

    def __post_init__(self):
        if self.kind == ModelKind.CRF2:
            if self.j is None or self.j < 0:
                raise ValueError("crf2 requires a polynomial order J >= 0")
            if self.t_order not in (1, 2):
                raise ValueError("crf2 t_order must be 1 or 2")
        elif self.kind == ModelKind.CRF1_LONG:
            if self.f_max is not None and self.f_max < 1:
                raise ValueError("crf1long f_max must be >= 1")
            if self.t_max is not None and self.t_max < 1:
                raise ValueError("crf1long t_max must be >= 1")
        elif self.kind == ModelKind.CRF1_SHORT:
            if self.f is None or self.f < 1:
                raise ValueError("crf1short requires f >= 1")

    @property
    def saturated(self) -> bool:
        """Saturated dummy designs drop the columns of empty cells, and an effect
        no column carries is absent; other models fail on rank deficiency."""
        return self.kind in (ModelKind.CRF1_LONG, ModelKind.CRF1_SHORT)

    @classmethod
    def t_model(cls) -> "ModelSpec":
        return cls(kind=ModelKind.T)

    @classmethod
    def r_model(cls) -> "ModelSpec":
        return cls(kind=ModelKind.R)

    @classmethod
    def tr_model(cls) -> "ModelSpec":
        return cls(kind=ModelKind.TR)

    @classmethod
    def crf2(cls, j: int, t_order: int = 1) -> "ModelSpec":
        return cls(kind=ModelKind.CRF2, j=j, t_order=t_order)

    @classmethod
    def crf1_long(cls, f_max: int | None = None, t_max: int | None = None) -> "ModelSpec":
        return cls(kind=ModelKind.CRF1_LONG, f_max=f_max, t_max=t_max)

    @classmethod
    def crf1_short(cls, f: int) -> "ModelSpec":
        return cls(kind=ModelKind.CRF1_SHORT, f=f)


VALID_SPEC_FORMS = (
    "t",
    "r",
    "tr",
    "crf2:J=<int>[,t_order=<1|2>]",
    "crf1long:f_max=<int>,t_max=<int>",
    "crf1short:f=<int>",
)


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_model_spec(text: str) -> ModelSpec:
    """Parse a CLI spec string such as ``tr`` or ``crf2:J=2,t_order=1``."""
    body = text.strip()
    name, _, arg_text = body.partition(":")
    name = name.lower()
    args: dict[str, int] = {}
    if arg_text:
        for item in arg_text.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            # one plain decimal integer per argument, each argument once
            if not sep or key in args or not _INTEGER.fullmatch(value):
                raise ValueError(_spec_error(text))
            args[key] = int(value)
    try:
        if name == "t" and not args:
            return ModelSpec.t_model()
        if name == "r" and not args:
            return ModelSpec.r_model()
        if name == "tr" and not args:
            return ModelSpec.tr_model()
        if name == "crf2" and set(args) <= {"J", "t_order"} and "J" in args:
            return ModelSpec.crf2(args["J"], args.get("t_order", 1))
        if name == "crf1long" and set(args) <= {"f_max", "t_max"}:
            return ModelSpec.crf1_long(args.get("f_max"), args.get("t_max"))
        if name == "crf1short" and set(args) == {"f"}:
            return ModelSpec.crf1_short(args["f"])
    except ValueError as exc:
        raise ValueError(f"invalid model spec {text!r}: {exc}") from None
    raise ValueError(_spec_error(text))


def _spec_error(text: str) -> str:
    return f"unrecognized model spec {text!r}; valid forms: " + ", ".join(VALID_SPEC_FORMS)


def format_model_spec(spec: ModelSpec) -> str:
    """Canonical spec string (inverse of :func:`parse_model_spec`)."""
    if spec.kind == ModelKind.CRF2:
        base = f"crf2:J={spec.j}"
        return base if spec.t_order == 1 else base + f",t_order={spec.t_order}"
    if spec.kind == ModelKind.CRF1_LONG:
        parts = []
        if spec.f_max is not None:
            parts.append(f"f_max={spec.f_max}")
        if spec.t_max is not None:
            parts.append(f"t_max={spec.t_max}")
        return "crf1long" + (":" + ",".join(parts) if parts else "")
    if spec.kind == ModelKind.CRF1_SHORT:
        return f"crf1short:f={spec.f}"
    return spec.kind.value


@dataclass(frozen=True)
class QRBlock:
    """Economic column-pivoted QR ``(q, r, pivots)`` of one diagonal block of a design.

    ``rows`` holds the indices of the block's cells, i.e. rows of the design's
    ``cell_values``, ``columns`` its design column indices, both in ascending
    order, and ``pivots`` indexes ``columns``.
    """

    rows: np.ndarray
    columns: np.ndarray
    q: np.ndarray
    r: np.ndarray
    pivots: np.ndarray


class DesignMatrix:
    """Design matrix plus per-column labels, stored by cell.

    ``cell_values`` holds one finite, read-only row per cell, ``cell_counts``
    the units in each cell, ``cell_weights`` their square roots, and
    ``cell_of_unit`` the cell of each unit. :func:`build_design` makes one
    cell per occupied (d, t, f) combination, since every design row is a
    function of (d, t, f) alone. A design built directly from ``values`` has
    one cell per row with count 1. ``values`` is the read-only n x k
    unit-level matrix, gathered from the cells on first use.
    """

    def __init__(self, values, labels):
        values = np.array(values, dtype=float)
        labels = tuple(labels)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        if values.shape[1] != len(labels):
            raise ValueError("one label per column required")
        if len(set(labels)) != len(labels):
            raise ValueError("column labels must be unique")
        n = values.shape[0]
        bad = _non_finite(values, labels, np.arange(n))
        if bad:
            raise ValueError(bad)
        self._set(values, labels, np.ones(n, dtype=np.int64), np.arange(n))

    @classmethod
    def from_cells(cls, cell_values, labels, cell_counts, cell_of_unit) -> "DesignMatrix":
        """The design whose unit ``i`` has row ``cell_values[cell_of_unit[i]]``;
        the caller guarantees finite values and unique labels."""
        design = cls.__new__(cls)
        design._set(np.asarray(cell_values, dtype=float), tuple(labels),
                    np.asarray(cell_counts), np.asarray(cell_of_unit))
        return design

    def _set(self, cell_values, labels, cell_counts, cell_of_unit) -> None:
        cell_values.setflags(write=False)
        self.cell_values, self.labels = cell_values, labels
        self.cell_counts, self.cell_of_unit = cell_counts, cell_of_unit
        self.cell_weights = np.sqrt(cell_counts)

    @property
    def n_rows(self) -> int:
        return int(self.cell_of_unit.shape[0])

    @property
    def n_cols(self) -> int:
        return len(self.labels)

    @property
    def n_cells(self) -> int:
        return int(self.cell_values.shape[0])

    @cached_property
    def values(self) -> np.ndarray:
        values = self.to_units(self.cell_values)
        values.setflags(write=False)
        return values

    def cell_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-cell sums of a unit-level vector."""
        return np.bincount(self.cell_of_unit, weights=v, minlength=self.n_cells)

    def to_units(self, a: np.ndarray) -> np.ndarray:
        """Per-cell rows of ``a`` repeated for each unit."""
        return a[self.cell_of_unit]

    @cached_property
    def qr(self) -> tuple[QRBlock, ...]:
        """Pivoted QR of each diagonal block of the sqrt(count)-weighted cell
        rows, shared by every fit of the matrix.

        A block is a connected set of rows and columns in the nonzero pattern,
        so the design is block-diagonal up to a permutation; blocks come in
        the order of their first column. A design with a column that has no
        zero entry (``1``, ``F^0``) is one block.
        """
        weighted = self.cell_values * self.cell_weights[:, None]
        return tuple(QRBlock(rows, columns, *_pivoted_qr(block))
                     for rows, columns, block in _diagonal_blocks(weighted))


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``scipy.linalg.qr(a, mode="economic", pivoting=True, check_finite=False)``
    of a 2-d float64 matrix, bit for bit.

    LAPACK ``dgeqp3`` and ``dorgqr`` are called as scipy calls them (a
    workspace query, then the call), without its per-call validation, which
    costs more than the factorization of a design's ~100 x 10 block.
    """
    m, n = a.shape
    if a.size == 0:
        return scipy.linalg.qr(a, mode="economic", pivoting=True, check_finite=False)
    qr, jpvt, tau, _, info = _GEQP3(a, lwork=_workspace(_GEQP3, a))
    if info != 0:
        raise NumericalError(f"LAPACK dgeqp3 info={info}")
    jpvt -= 1
    r = np.triu(qr) if m < n else np.triu(qr[:n, :])
    a_q = qr[:, :m] if m < n else qr
    q, _, info = _ORGQR(a_q, tau, lwork=_workspace(_ORGQR, a_q, tau), overwrite_a=1)
    if info != 0:
        raise NumericalError(f"LAPACK dorgqr info={info}")
    return q, r, jpvt


def _workspace(routine, *args) -> int:
    """The optimal ``lwork`` of a LAPACK routine for ``args``, from its workspace query."""
    return int(routine(*args, lwork=-1)[-2][0].real)


def _non_finite(values: np.ndarray, labels, cell_of_unit: np.ndarray) -> str | None:
    """Message naming the first non-finite entry of the cell rows ``values``
    by unit row and column label, or None."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    row = int(np.argmax(~finite.all(axis=1)[cell_of_unit]))
    cell = int(cell_of_unit[row])
    col = int(np.argmax(~finite[cell]))
    return f"design row {row}, column {labels[col]!r} is not finite ({values[cell, col]})"


def _diagonal_blocks(values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, columns, values) of each connected block of the nonzero pattern,
    by first column.

    A block grows from its first column: take the rows where its columns are
    nonzero, then every column nonzero in those rows, until no column is new.
    All-zero rows belong to no block, and an all-zero column is a block
    without rows. A column without zeros joins every row and column into one
    block when no column is all zero, and that block is ``values`` itself.
    """
    m, k = values.shape
    nonzero = values != 0
    if m and nonzero.all(axis=0).any() and nonzero.any(axis=0).all():
        return [(np.arange(m), np.arange(k), values)]
    blocks, seen = [], np.zeros(k, dtype=bool)
    for first in range(k):
        if seen[first]:
            continue
        cols = np.arange(k) == first
        while True:
            rows = nonzero[:, cols].any(axis=1)
            grown = cols | nonzero[rows].any(axis=0)
            if (grown == cols).all():
                break
            cols = grown
        seen |= cols
        rows, cols = np.flatnonzero(rows), np.flatnonzero(cols)
        blocks.append((rows, cols, values[np.ix_(rows, cols)]))
    return blocks


def design_values(labels, d, t, f) -> np.ndarray:
    """Columns for ``labels`` on raw unit data, one per label; shared atoms are evaluated once."""
    d, t, f = _floats(d, t, f)
    ones = np.ones(np.broadcast(d, t, f).shape)
    atoms: dict[str, np.ndarray] = {}
    return np.column_stack([_column(label, ones, atoms, d, t, f) for label in labels])


def _floats(d, t, f):
    return (np.asarray(d, dtype=float), np.asarray(t, dtype=float), np.asarray(f, dtype=float))


def _column(label: str, out: np.ndarray, atoms: dict, d, t, f) -> np.ndarray:
    """``out`` times every atom of ``label``; ``atoms`` memoizes atom values."""
    for atom in label.split(":"):
        if atom == "1":
            continue
        if atom not in atoms:
            atoms[atom] = _atom(atom, label, d, t, f)
        out = out * atoms[atom]
    return out


def _atom(atom: str, label: str, d, t, f):
    if atom == "D":
        return d
    if atom == "T":
        return t
    if atom == "F":
        return f
    if atom == "R":
        return t / f
    if atom == "T^2":
        return t * t
    if atom.startswith("F^"):
        return f ** int(atom[2:])
    if atom.startswith("F="):
        return f == int(atom[2:])
    if atom.startswith("T="):
        return t == int(atom[2:])
    raise ValueError(f"unknown column atom {atom!r} in label {label!r}")


def _crf1_long_labels(f_max: int, t_max: int) -> list[str]:
    labels = []
    for f in range(1, f_max + 1):
        labels.append(f"F={f}")
        labels.append(f"D:F={f}")
        for t in range(1, min(f, t_max) + 1):
            labels.append(f"T={t}:F={f}")
        for t in range(1, min(f, t_max) + 1):
            labels.append(f"D:T={t}:F={f}")
    return labels


def build_design(frame: SampleFrame, spec: ModelSpec) -> DesignMatrix:
    """Build the design matrix for ``spec`` on a frame.

    Column orders (fixed):
      t          [1, D, T, F]
      r          [1, D, R]
      tr         [1, F, D, T, R, D:T, D:R]
      crf2       [F^0..F^J, D:F^0.., T:F^0.., D:T:F^0..]; t_order=2 appends
                 [T^2:F^0.., D:T^2:F^0..]
      crf1long   per f = 1..f_max: [F=f, D:F=f, T=t:F=f for t<=min(f,t_max),
                 D:T=t:F=f ...]; rows with F > f_max or T > t_max are rejected
      crf1short  [1, D, T=1..T=f, D:T=1..D:T=f]; frame must satisfy F == f

    The labels are evaluated once per occupied (d, t, f) cell of the frame
    (:attr:`SampleFrame.cells`). An entry that is not finite, such as an
    ``F^j`` beyond the float64 range, raises :class:`NumericalError` naming
    the first unit row it reaches and the column label.
    """
    if frame.n_selected == 0:
        raise ValueError("cannot build a design matrix on an empty frame")

    if spec.kind == ModelKind.T:
        labels = ["1", "D", "T", "F"]
    elif spec.kind == ModelKind.R:
        labels = ["1", "D", "R"]
    elif spec.kind == ModelKind.TR:
        labels = ["1", "F", "D", "T", "R", "D:T", "D:R"]
    elif spec.kind == ModelKind.CRF2:
        powers = [f"F^{j}" for j in range(spec.j + 1)]
        labels = powers + [f"D:{p}" for p in powers] + [f"T:{p}" for p in powers]
        labels += [f"D:T:{p}" for p in powers]
        if spec.t_order == 2:
            labels += [f"T^2:{p}" for p in powers] + [f"D:T^2:{p}" for p in powers]
    elif spec.kind == ModelKind.CRF1_LONG:
        f_max = spec.f_max if spec.f_max is not None else int(frame.f.max())
        t_max = spec.t_max if spec.t_max is not None else max(1, int(frame.t.max()))
        if (frame.f > f_max).any():
            bad = int(frame.f[frame.f > f_max][0])
            raise OutOfSupportError(f"frame contains F={bad} beyond f_max={f_max}")
        if (frame.t > t_max).any():
            bad = int(frame.t[frame.t > t_max][0])
            raise OutOfSupportError(f"frame contains T={bad} beyond t_max={t_max}")
        labels = _crf1_long_labels(f_max, t_max)
    elif spec.kind == ModelKind.CRF1_SHORT:
        if (frame.f != spec.f).any():
            raise ValueError(f"crf1short:f={spec.f} requires a frame restricted to F={spec.f}")
        labels = ["1", "D"]
        labels += [f"T={k}" for k in range(1, spec.f + 1)]
        labels += [f"D:T={k}" for k in range(1, spec.f + 1)]
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unsupported model kind {spec.kind}")

    cells = frame.cells
    with np.errstate(over="ignore", invalid="ignore"):
        values = design_values(labels, cells.d, cells.t, cells.f)
    bad = _non_finite(values, labels, cells.of_unit)
    if bad:
        raise NumericalError(bad)
    return DesignMatrix.from_cells(values, labels, cells.counts, cells.of_unit)

