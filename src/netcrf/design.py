"""Design matrices for every estimator.

Column labels follow a small grammar: atoms joined by ``:`` multiply.
Atoms are ``1`` (constant), ``D``, ``T``, ``F``, ``R`` (= T/F), ``T^2``,
``F^j`` (j-th power), and the dummies ``F=k`` / ``T=k``. Recomputing a
column from raw (d, t, f) via its label reproduces the stored values, and
column order is fixed so coefficient positions are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.linalg

from .dgp import SampleFrame
from .errors import OutOfSupportError


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


def parse_model_spec(text: str) -> ModelSpec:
    """Parse a CLI spec string such as ``tr`` or ``crf2:J=2,t_order=1``."""
    body = text.strip()
    name, _, arg_text = body.partition(":")
    name = name.lower()
    args: dict[str, int] = {}
    if arg_text:
        for item in arg_text.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(_spec_error(text))
            try:
                args[key.strip()] = int(value)
            except ValueError:
                raise ValueError(_spec_error(text)) from None
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
class DesignMatrix:
    """Numeric design matrix plus per-column labels; ``values`` is a read-only copy."""

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        if values.shape[1] != len(self.labels):
            raise ValueError("one label per column required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("column labels must be unique")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.values.shape[1])

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self.labels.index(label)]

    @cached_property
    def qr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Economic column-pivoted QR ``(q, r, pivots)``, shared by every fit of the matrix."""
        return scipy.linalg.qr(self.values, mode="economic", pivoting=True)


def column_value(label: str, d, t, f):
    """Evaluate a column label on raw unit data (vectorized)."""
    d, t, f = _floats(d, t, f)
    return _column(label, np.ones(np.broadcast(d, t, f).shape), {}, d, t, f)


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

    values = design_values(labels, frame.d, frame.t, frame.f)
    return DesignMatrix(values=values, labels=tuple(labels))


def split_by_f(frame: SampleFrame) -> list[tuple[int, SampleFrame]]:
    """Partition a frame by friend count, ascending f."""
    if frame.n_selected == 0:
        raise ValueError("cannot split an empty frame")
    return [(int(v), frame.restrict_to_f(int(v))) for v in np.unique(frame.f)]
