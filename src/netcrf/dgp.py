"""Outcome simulation under randomized treatment on a network.

The outcome of a unit with f friends, own treatment d, and t treated friends is

    y = beta0 + beta_f*f + (beta_d + beta_f2*ln f)*d
        + (beta_tau + beta_r/f + beta_f2*ln f)*t
        + (beta_dtau + beta_dr/f + beta_f2*ln f)*d*t + u,

with u ~ Normal(0, noise_sd) drawn independently of (d, t, f). Four named
scenarios toggle the heterogeneity coefficients so that the count-based,
ratio-based, both, or neither of the linear estimators is correctly
specified. Estimation frames keep only units with f >= 1.

A seed fixes one uniform and one standard-normal draw per unit, shared by
every parameter set: the streams are ``child_seeds(seed, 0, 2)``, uniforms
first, and d = uniform < p_treat, u = noise_sd * z. So scenarios that share
``p_treat`` share d, t and z, and one draw serves them all.

**Cells.** The mean outcome depends on (d, t, f) alone, so within an
occupied cell ``c`` each scenario's outcome is ``y_is = mu_cs + sigma_s z_i``.
Its cell sum is ``n_c mu_cs + sigma_s Z_c`` and its sum of squares about the
cell mean ``sigma_s^2 W_c``, where ``Z_c`` sums the standard-normal draws of
the cell's units and ``W_c`` is their sum of squares about their cell mean.
:func:`simulate_cells` draws once and keeps the frame by cell
(:class:`CellDraw`): the cells, the means ``mu_cs`` and the shared draws,
whose :class:`CellSums` are all a fit of a design built on (d, t, f) needs.
:func:`simulate_frame` is the one-scenario draw with its outcome gathered to
units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .graph import Network, treated_neighbor_counts
from .rng import child_seeds, rng_from_seed

SCENARIO_IDS = ("i", "ii", "iii", "iv")


@dataclass(frozen=True)
class DgpParams:
    """Coefficients of the simulated outcome equation."""

    beta0: float = 0.0
    beta_f: float = 0.0
    beta_d: float = 0.0
    beta_f2: float = 0.0
    beta_tau: float = 0.0
    beta_r: float = 0.0
    beta_dtau: float = 0.0
    beta_dr: float = 0.0
    noise_sd: float = 1.0
    p_treat: float = 0.5

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if not 0.0 < self.p_treat < 1.0:
            raise ValueError(f"p_treat must be in (0, 1), got {self.p_treat}")


@dataclass(frozen=True)
class SampleFrame:
    """Per-unit rows (y, d, t, f) restricted to f >= 1, each of shape ``(n,)``.

    ``ids`` keeps the original unit indices so emitted files can be traced
    back to the simulated population; ``n_total`` is the population size
    before the f > 0 selection.
    """

    y: np.ndarray
    d: np.ndarray
    t: np.ndarray
    f: np.ndarray
    ids: np.ndarray
    n_total: int

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.d, dtype=np.int64)
        t = np.asarray(self.t, dtype=np.int64)
        f = np.asarray(self.f, dtype=np.int64)
        ids = np.asarray(self.ids, dtype=np.int64)
        if y.ndim != 1:
            raise ValueError(f"y must have shape (n,), got {y.shape}")
        n = y.shape[0]
        for name, arr in (("d", d), ("t", t), ("f", f), ("ids", ids)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have length {n}")
        if n:
            if not ((d == 0) | (d == 1)).all():
                raise ValueError("d entries must be 0 or 1")
            if (f < 1).any():
                raise ValueError("frames only contain units with f >= 1")
            if ((t < 0) | (t > f)).any():
                raise ValueError("t must satisfy 0 <= t <= f")
        if n > self.n_total:
            raise ValueError("n_selected cannot exceed n_total")
        check_finite_y(y)
        for name, arr in (("y", y), ("d", d), ("t", t), ("f", f), ("ids", ids)):
            object.__setattr__(self, name, arr)

    @property
    def n_selected(self) -> int:
        return int(self.y.shape[0])

    @cached_property
    def cells(self) -> "FrameCells":
        """The occupied (d, t, f) cells, computed on first use and shared by
        every design built on this frame."""
        return frame_cells(self.d, self.t, self.f)

    def restrict_to_f(self, value: int) -> "SampleFrame":
        """Subframe of rows with f equal to ``value``."""
        mask = self.f == value
        return SampleFrame(
            y=self.y[mask], d=self.d[mask], t=self.t[mask], f=self.f[mask],
            ids=self.ids[mask], n_total=self.n_total,
        )


@dataclass(frozen=True)
class FrameCells:
    """Occupied (d, t, f) cells of a frame in ascending (f, t, d) order.

    ``d``, ``t``, ``f`` and ``counts`` (units per cell) hold one entry per
    cell; ``of_unit`` holds the cell of each unit.
    """

    d: np.ndarray
    t: np.ndarray
    f: np.ndarray
    counts: np.ndarray
    of_unit: np.ndarray


def frame_cells(d, t, f) -> FrameCells:
    """Group units by (d, t, f) through one integer key ``(f * width + t) * 2 + d``
    with ``width = max t + 1``, whose ascending order is the (f, t, d) order."""
    d, t, f = (np.asarray(a, dtype=np.int64) for a in (d, t, f))
    if d.size == 0:
        raise ValueError("an empty frame has no cells")
    width = int(t.max()) + 1
    keys, of_unit, counts = np.unique((f * width + t) * 2 + d, return_inverse=True,
                                      return_counts=True)
    return FrameCells(d=keys % 2, t=keys // 2 % width, f=keys // (2 * width), counts=counts,
                      of_unit=of_unit.reshape(-1))


@dataclass(frozen=True)
class CellSums:
    """An outcome's statistics per cell of a design, in the design's cell
    order: ``values``, its sum over the cell's units, and ``within``, its sum
    of squares about the cell mean. Both have shape ``(n_cells,)``, or
    ``(n_cells, s)`` for ``s`` outcomes of the same units; they are all
    :func:`netcrf.lsq.fit` needs of the outcome."""

    values: np.ndarray
    within: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        within = np.asarray(self.within, dtype=float)
        if values.shape != within.shape:
            raise ValueError(f"within-cell squares have shape {within.shape}, "
                             f"the sums {values.shape}")
        if not (within >= 0).all():
            raise ValueError("within-cell sums of squares must be >= 0")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "within", within)

    @classmethod
    def of_units(cls, y: np.ndarray, of_unit: np.ndarray, counts: np.ndarray) -> "CellSums":
        """The statistics of a unit-level ``y``, shape ``(n,)``, over the cells
        ``of_unit`` of its units, with ``counts`` units per cell."""
        sums = np.bincount(of_unit, weights=y, minlength=counts.size)
        deviations = y - (sums / counts)[of_unit]
        return cls(sums, np.bincount(of_unit, weights=deviations * deviations,
                                     minlength=counts.size))


def friend_count_multiplicities(f_values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct friend counts of ``f_values``, ascending, and how many
    units have each. Friend counts must be whole numbers >= 1, and there
    must be at least one."""
    f_values = np.asarray(f_values)
    if f_values.size == 0:
        raise ValueError("f_values must be nonempty")
    if (f_values < 1).any():
        raise ValueError("all f_values must be >= 1")
    if f_values.dtype.kind not in "iu" and (f_values != np.floor(f_values)).any():
        raise ValueError("f_values must be whole friend counts")
    counts = np.bincount(f_values.astype(np.int64, copy=False).ravel())
    unique_f = np.flatnonzero(counts)
    return unique_f, counts[unique_f]


@dataclass(frozen=True)
class TrueEffects:
    """Aggregate direct, network, and interaction effects implied by a design."""

    direct: float
    network: float
    interaction: float


def check_finite_y(y: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite entry of a 1-D or 2-D outcome array."""
    finite = np.isfinite(y)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"y[{', '.join(map(str, index))}] is not finite ({y[index]})")


def dgp_scenario(scenario: str, **overrides) -> DgpParams:
    """Preset parameters for scenario ``i``, ``ii``, ``iii``, or ``iv``.

    All presets share beta0=0, beta_f=-2, beta_d=2, noise_sd=1, p_treat=0.5;
    keyword overrides replace any field.
    """
    base = dict(beta0=0.0, beta_f=-2.0, beta_d=2.0, noise_sd=1.0, p_treat=0.5)
    presets = {
        "i": dict(beta_tau=0.2),
        "ii": dict(beta_r=2.0),
        "iii": dict(beta_tau=0.2, beta_r=2.0, beta_dtau=0.2, beta_dr=2.0),
        "iv": dict(beta_f2=0.4, beta_tau=0.2, beta_r=2.0, beta_dtau=0.2, beta_dr=2.0),
    }
    if scenario not in presets:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIO_IDS}")
    params = DgpParams(**base, **presets[scenario])
    return replace(params, **overrides) if overrides else params


def assign_treatment(n: int, p_treat: float, seed: int) -> np.ndarray:
    """Draw n i.i.d. Bernoulli(p_treat) treatment indicators, deterministic per seed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 < p_treat < 1.0:
        raise ValueError(f"p_treat must be in (0, 1), got {p_treat}")
    rng = rng_from_seed(seed)
    return (rng.random(n) < p_treat).astype(np.int64)


def _outcome_mean(params: DgpParams, f, d, t):
    f = np.asarray(f, dtype=float)
    log_f = np.log(f)
    return (
        params.beta0
        + params.beta_f * f
        + (params.beta_d + params.beta_f2 * log_f) * d
        + (params.beta_tau + params.beta_r / f + params.beta_f2 * log_f) * t
        + (params.beta_dtau + params.beta_dr / f + params.beta_f2 * log_f) * d * t
    )


@dataclass(frozen=True)
class CellDraw:
    """One seed's frame for several scenarios, kept by (d, t, f) cell.

    ``d``, ``t``, ``f`` and ``ids`` are the frame's unit columns (units with
    f >= 1), ``z`` each unit's standard-normal draw and ``n_total`` the
    population size. ``cells`` groups the units (None for a frame without
    units); ``means`` holds each scenario's outcome mean per cell,
    ``(n_cells, s)``, and ``noise_sd`` each scenario's noise scale. Like a
    :class:`SampleFrame`, it has ``n_selected`` and ``cells``, so
    :func:`netcrf.design.build_design` takes it.
    """

    d: np.ndarray
    t: np.ndarray
    f: np.ndarray
    ids: np.ndarray
    z: np.ndarray
    n_total: int
    cells: FrameCells | None
    means: np.ndarray
    noise_sd: np.ndarray

    @property
    def n_selected(self) -> int:
        return int(self.f.shape[0])

    def cell_sums(self) -> CellSums:
        """Each scenario's :class:`CellSums`, ``(n_cells, s)``: the sums
        ``n_c mu_cs + sigma_s Z_c`` and the within-cell squares
        ``sigma_s^2 W_c``. A non-finite sum raises ValueError, naming the first
        non-finite unit outcome ``y[i, s]`` where there is one."""
        cells = self.cells
        noise = CellSums.of_units(self.z, cells.of_unit, cells.counts)
        sums = cells.counts[:, None] * self.means + noise.values[:, None] * self.noise_sd
        if not np.isfinite(sums).all():
            check_finite_y(self.outcomes())
            raise ValueError("a cell sum of y is not finite, although every y is")
        # (W sigma) sigma is never NaN, where W sigma^2 would be 0 * inf at a huge sigma
        return CellSums(sums, noise.within[:, None] * self.noise_sd * self.noise_sd)

    def outcomes(self) -> np.ndarray:
        """The unit-level outcomes ``mu_cs + sigma_s z_i``, ``(n, s)``."""
        if self.cells is None:
            return np.zeros((0, self.means.shape[1]))
        return self.means[self.cells.of_unit] + self.z[:, None] * self.noise_sd

    def frame(self) -> SampleFrame:
        """The frame of a one-scenario draw, with its outcome gathered to units."""
        if self.means.shape[1] != 1:
            raise ValueError(f"a frame holds one scenario's outcome; this draw has "
                             f"{self.means.shape[1]} scenarios")
        frame = SampleFrame(y=self.outcomes()[:, 0], d=self.d, t=self.t, f=self.f,
                            ids=self.ids, n_total=self.n_total)
        if self.cells is not None:
            object.__setattr__(frame, "cells", self.cells)  # every design of the frame reuses them
        return frame


def simulate_cells(network: Network, scenarios: Sequence[DgpParams], seed: int) -> CellDraw:
    """Draw the frame of ``scenarios`` from ``seed``, kept by cell.

    The scenarios must share ``p_treat``, which fixes d and t.
    """
    if network.n < 1:
        raise ValueError("network must contain at least one unit")
    p_treat = {params.p_treat for params in scenarios}
    if len(p_treat) != 1:
        raise ValueError(f"scenarios of one frame must share p_treat, got {sorted(p_treat)}")
    seed_d, seed_u = child_seeds(seed, 0, 2)
    d = (rng_from_seed(seed_d).random(network.n) < p_treat.pop()).astype(np.int64)
    z = rng_from_seed(seed_u).standard_normal(network.n)

    retained = network.degree > 0
    d_sel, f_sel = d[retained], network.degree[retained]
    t_sel = treated_neighbor_counts(network, d)[retained]
    cells, means = None, np.zeros((0, len(scenarios)))
    if d_sel.size:
        cells = frame_cells(d_sel, t_sel, f_sel)
        means = np.column_stack([_outcome_mean(params, cells.f, cells.d, cells.t)
                                 for params in scenarios])
    return CellDraw(d=d_sel, t=t_sel, f=f_sel, ids=np.flatnonzero(retained), z=z[retained],
                    n_total=network.n, cells=cells, means=means,
                    noise_sd=np.array([params.noise_sd for params in scenarios], dtype=float))


def simulate_frame(network: Network, params: DgpParams, seed: int) -> SampleFrame:
    """Simulate treatments and outcomes on a network; keep units with F > 0."""
    return simulate_cells(network, (params,), seed).frame()


def true_aggregate_effects(params: DgpParams, f_values) -> TrueEffects:
    """Average the three per-friend effect functions over realized friend counts.

    direct:       E[beta_d + beta_f2*ln F]
    network:      E[beta_tau + beta_r/F + beta_f2*ln F]
    interaction:  E[beta_dtau + beta_dr/F + beta_f2*ln F]

    Each is evaluated once per distinct friend count and weighted by its
    multiplicity in ``f_values``.
    """
    f, counts = friend_count_multiplicities(f_values)
    f, n = f.astype(float), int(counts.sum())
    log_f = np.log(f)
    return TrueEffects(
        direct=float(counts @ (params.beta_d + params.beta_f2 * log_f) / n),
        network=float(counts @ (params.beta_tau + params.beta_r / f + params.beta_f2 * log_f) / n),
        interaction=float(counts @ (params.beta_dtau + params.beta_dr / f
                                    + params.beta_f2 * log_f) / n),
    )
