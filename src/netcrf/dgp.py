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
first, and d = uniform < p_treat, u = noise_sd * z. So
:func:`simulate_frames` draws once for scenarios that share ``p_treat``,
counts treated friends once, and returns one frame whose outcome has one
column per scenario; :func:`simulate_frame` is its one-scenario case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if not 0.0 < self.p_treat < 1.0:
            raise ValueError(f"p_treat must be in (0, 1), got {self.p_treat}")


@dataclass(frozen=True)
class SampleFrame:
    """Per-unit rows (y, d, t, f) restricted to f >= 1.

    ``y`` has shape ``(n,)``, or ``(n, s)`` for ``s`` outcomes of the same
    units, one column each, as :func:`netcrf.lsq.fit` takes it. ``ids``
    keeps the original unit indices so emitted files can be traced back to
    the simulated population; ``n_total`` is the population size before the
    f > 0 selection.
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
        if y.ndim not in (1, 2):
            raise ValueError(f"y must have shape (n,) or (n, s), got {y.shape}")
        n = y.shape[0]
        for name, arr in (("d", d), ("t", t), ("f", f), ("ids", ids)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have length {n}")
        if n:
            if not np.isin(d, (0, 1)).all():
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


def _simulate(network: Network, scenarios: Sequence[DgpParams], seed: int, stack: bool):
    """The frame of ``scenarios`` drawn from ``seed``; ``stack`` makes ``y``
    one column per scenario, otherwise ``y`` is the one scenario's outcome."""
    if network.n < 1:
        raise ValueError("network must contain at least one unit")
    p_treat = {params.p_treat for params in scenarios}
    if len(p_treat) != 1:
        raise ValueError(f"scenarios of one frame must share p_treat, got {sorted(p_treat)}")
    seed_d, seed_u = child_seeds(seed, 0, 2)
    d = (rng_from_seed(seed_d).random(network.n) < p_treat.pop()).astype(np.int64)
    z = rng_from_seed(seed_u).standard_normal(network.n)

    retained = network.degree > 0
    d_sel, f_sel, z_sel = d[retained], network.degree[retained], z[retained]
    t_sel = treated_neighbor_counts(network, d)[retained]
    y = [_outcome_mean(params, f_sel, d_sel, t_sel) + params.noise_sd * z_sel
         for params in scenarios]
    return SampleFrame(y=np.column_stack(y) if stack else y[0], d=d_sel, t=t_sel, f=f_sel,
                       ids=np.flatnonzero(retained), n_total=network.n)


def simulate_frames(network: Network, scenarios: Sequence[DgpParams], seed: int) -> SampleFrame:
    """One frame for every parameter set, all from the same draws of ``seed``.

    The scenarios must share ``p_treat``, which fixes d and t. Column ``j``
    of ``y`` equals ``simulate_frame(network, scenarios[j], seed).y``.
    """
    return _simulate(network, scenarios, seed, stack=True)


def simulate_frame(network: Network, params: DgpParams, seed: int) -> SampleFrame:
    """Simulate treatments and outcomes on a network; keep units with F > 0."""
    return _simulate(network, (params,), seed, stack=False)


def true_aggregate_effects(params: DgpParams, f_values) -> TrueEffects:
    """Average the three per-friend effect functions over realized friend counts.

    direct:       E[beta_d + beta_f2*ln F]
    network:      E[beta_tau + beta_r/F + beta_f2*ln F]
    interaction:  E[beta_dtau + beta_dr/F + beta_f2*ln F]
    """
    f = np.asarray(f_values, dtype=float)
    if f.size == 0:
        raise ValueError("f_values must be nonempty")
    if (f < 1).any():
        raise ValueError("all f_values must be >= 1")
    log_f = np.log(f)
    return TrueEffects(
        direct=float(np.mean(params.beta_d + params.beta_f2 * log_f)),
        network=float(np.mean(params.beta_tau + params.beta_r / f + params.beta_f2 * log_f)),
        interaction=float(np.mean(params.beta_dtau + params.beta_dr / f + params.beta_f2 * log_f)),
    )
