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

from . import _lapack
from .dgp import CellDraw, FrameCells, SampleFrame
from .errors import NumericalError, OutOfSupportError


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


class DesignMatrix:
    """Design matrix plus per-column labels, stored by the cells of a frame.

    ``cells`` is the frame's :class:`FrameCells`: the occupied (d, t, f)
    cells, their unit ``counts`` and the cell ``of_unit`` of each unit.
    ``cell_values`` holds one finite, read-only row per cell, since every
    design row is a function of (d, t, f) alone, and ``cell_weights`` the
    square roots of the counts. A fit's effect table reads the friend counts
    from ``cells``. ``values`` is the read-only n x k unit-level matrix,
    gathered from the cells on first use. :func:`build_design` makes every
    design of the program and guarantees finite values and unique labels.

    ``own_cell`` is None except for the saturated designs of
    :func:`build_design`, where it holds per column the index of its own
    cell, the lowest cell the column reaches, or -1 when no unit is in it.
    """

    def __init__(self, cell_values, labels, cells: FrameCells, own_cell=None):
        cell_values = np.asarray(cell_values, dtype=float)
        cell_values.setflags(write=False)
        self.cell_values, self.labels, self.cells = cell_values, tuple(labels), cells
        self.cell_weights = np.sqrt(cells.counts)
        self.own_cell = own_cell

    @property
    def n_rows(self) -> int:
        return int(self.cells.of_unit.shape[0])

    @property
    def n_cols(self) -> int:
        return len(self.labels)

    @property
    def n_cells(self) -> int:
        return int(self.cell_values.shape[0])

    @cached_property
    def values(self) -> np.ndarray:
        values = self.cell_values[self.cells.of_unit]
        values.setflags(write=False)
        return values

    @cached_property
    def qr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Economic column-pivoted QR ``(q, r, pivots)`` of the sqrt(count)-weighted
        cell rows, computed on first use and shared by every fit of the matrix."""
        return _pivoted_qr(self.cell_values * self.cell_weights[:, None])


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``scipy.linalg.qr(a, mode="economic", pivoting=True, check_finite=False)``
    of a 2-d float64 matrix, bit for bit.

    LAPACK ``dgeqp3`` and ``dorgqr`` are called as scipy calls them (a
    workspace query, then the call), without its per-call validation, which
    costs more than the factorization of a ~100 x 10 cell design. An empty
    ``a`` gets scipy's empty results without a LAPACK call.
    """
    m, n = a.shape
    if a.size == 0:
        k = min(m, n)
        return np.empty((m, k)), np.empty((k, n)), np.arange(n, dtype=np.int32)
    qr, jpvt, tau, _, info = _lapack.dgeqp3(a, lwork=_workspace(_lapack.dgeqp3, a))
    if info != 0:
        raise NumericalError(f"LAPACK dgeqp3 info={info}")
    jpvt -= 1
    r = np.triu(qr) if m < n else np.triu(qr[:n, :])
    a_q = qr[:, :m] if m < n else qr
    q, _, info = _lapack.dorgqr(a_q, tau, lwork=_workspace(_lapack.dorgqr, a_q, tau),
                                overwrite_a=1)
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


def _saturated_columns(f_values, t_max: int, with_f: bool) -> tuple[list[str], list]:
    """Labels of a saturated design and the own cell (d, t, f) of each column.

    Per f: ``F=f``, ``D:F=f``, ``T=t:F=f`` for ``t <= min(f, t_max)``, then
    ``D:T=t:F=f``; without ``with_f`` the ``:F=f`` atom is left out and
    ``F=f`` is ``1``. A column's own cell is the lowest cell in (f, t, d)
    order that it reaches: d and t are 0 unless its label sets them.
    """
    labels, owners = [], []
    for f in f_values:
        treated = range(1, min(f, t_max) + 1)
        tail = f":F={f}" if with_f else ""
        labels += [f"F={f}" if with_f else "1", "D" + tail,
                   *(f"T={t}{tail}" for t in treated), *(f"D:T={t}{tail}" for t in treated)]
        owners += [(0, 0, f), (1, 0, f), *((0, t, f) for t in treated),
                   *((1, t, f) for t in treated)]
    return labels, owners


def _cell_index(owners, cells) -> np.ndarray:
    """Index of each (d, t, f) of ``owners`` among the occupied ``cells``, -1
    where no unit is in it. An occupied cell without an owner raises KeyError."""
    column = {owner: j for j, owner in enumerate(owners)}
    occupied = zip(cells.d.tolist(), cells.t.tolist(), cells.f.tolist())
    own = np.full(len(owners), -1)
    own[[column[cell] for cell in occupied]] = np.arange(cells.counts.size)
    return own


def build_design(frame: SampleFrame | CellDraw, spec: ModelSpec) -> DesignMatrix:
    """Build the design matrix for ``spec`` on a frame, or on a frame drawn by
    cell (:func:`netcrf.dgp.simulate_cells`), which has no unit-level outcome.

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
    (:attr:`SampleFrame.cells`), which the design keeps. The two saturated
    designs record the own cell of each column (:attr:`DesignMatrix.own_cell`);
    since rows beyond their support are rejected, every occupied cell owns
    exactly one column.
    An entry that is not finite, such as an ``F^j`` beyond the float64
    range, raises :class:`NumericalError` naming the first unit row it
    reaches and the column label.
    """
    if frame.n_selected == 0:
        raise ValueError("cannot build a design matrix on an empty frame")

    owners = None
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
        labels, owners = _saturated_columns(range(1, f_max + 1), t_max, with_f=True)
    elif spec.kind == ModelKind.CRF1_SHORT:
        if (frame.f != spec.f).any():
            raise ValueError(f"crf1short:f={spec.f} requires a frame restricted to F={spec.f}")
        labels, owners = _saturated_columns([spec.f], spec.f, with_f=False)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unsupported model kind {spec.kind}")

    cells = frame.cells
    with np.errstate(over="ignore", invalid="ignore"):
        values = design_values(labels, cells.d, cells.t, cells.f)
    bad = _non_finite(values, labels, cells.of_unit)
    if bad:
        raise NumericalError(bad)
    own_cell = None if owners is None else _cell_index(owners, cells)
    return DesignMatrix(values, labels, cells, own_cell)

