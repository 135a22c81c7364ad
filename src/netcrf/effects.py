"""Translate fitted coefficients into causal effect estimates.

For a unit with f friends, the estimands are the baseline level E(Y^00|F=f),
the direct effect delta_0(f) of own treatment at zero treated friends, the
spillover level effect tau_0t(f) of t treated friends on an untreated unit,
and the net interaction effect tau_pm_t(f). The remaining two estimands
follow from the identities

    tau_1t(f) = tau_0t(f) + tau_pm_t(f),
    delta_t(f) = delta_0(f) + tau_pm_t(f),

so every effect table closes exactly. One formula serves every estimator:
each estimand is a contrast of design rows x(d, t, f), evaluated from the
column labels and applied to the coefficients,

    baseline = x(0,0,f),            delta0 = x(1,0,f) - x(0,0,f),
    tau0 = x(0,t,f) - x(0,0,f),     tau_pm = x(1,t,f) - x(1,0,f) - x(0,t,f) + x(0,0,f).

The rows of a table are the friend counts of the fit's units, read from
the cells its design was built on. An entry is absent (never zero) when its
contrast weights a dropped column, or when a saturated design (``own_cell``
set, as :func:`netcrf.lsq.fit` reads it) has no column carrying it, as for
``crf1long`` beyond ``t_max``. A saturated design's aggregates also skip a
field that is not identified, because its contrast reaches an empty cell;
the table still shows it as the value of the kept columns. With (0, 0, f)
empty, for example, ``T=t:F=f`` is kept and its coefficient, the table's
tau0, is the level of (0, t, f), not a contrast. Such a field is absent
itself or builds on an absent one: delta0 and tau0 build on the baseline,
tau_pm on all three.

The direct, network and interaction aggregates average delta0, tau0 and
tau_pm at one treated friend over the units whose friend count has the
field, and count the units they skip: they are ``w @ beta`` for one 3 x k
map ``w`` (:func:`_aggregate_map`) of the design and its dropped columns.
A multi-outcome fit builds it once and evaluates each outcome by its own
matrix-vector product, bit for bit as a one-outcome fit would. Its t = 1
contrasts are cached per process by column labels and distinct friend
counts, since a Monte Carlo study asks for the same few in every
replication.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .design import design_values
from .lsq import FitResult

def complete_effects(delta0: float, tau0: float, tau_pm: float) -> tuple[float, float]:
    """Complete (tau1, delta_t) from the identity-closing decomposition."""
    return tau0 + tau_pm, delta0 + tau_pm


def telescope_level_from_changes(changes) -> float:
    """Sum per-step change effects s = 1..t into the level effect at t.

    The change effect at step s compares s treated friends against s - 1;
    telescoping the steps recovers the level effect relative to zero.
    """
    values = list(changes)
    if not values:
        raise ValueError("changes must be nonempty")
    return float(sum(values))


@dataclass(frozen=True)
class EffectCell:
    """Effect estimates at one (f, t); None marks an absent (not zero) entry."""

    f: int
    t: int
    delta0: float | None
    tau0: float | None
    tau_pm: float | None
    tau1: float | None
    delta_t: float | None
    baseline: float | None


@dataclass(frozen=True)
class EffectAggregates:
    """Frame-weighted aggregate effects; None when no cell was available.

    ``skipped_units`` counts, per aggregate (direct, network, interaction),
    the units whose cell at one treated friend is absent, or not identified
    by a saturated design, and so left out.
    """

    direct: float | None
    network: float | None
    interaction: float | None
    skipped_units: tuple[int, int, int] = (0, 0, 0)


@dataclass(frozen=True)
class EffectTable:
    cells: tuple[EffectCell, ...]
    aggregates: EffectAggregates | tuple[EffectAggregates, ...]

    CSV_COLUMNS = ("f", "t", "delta0", "tau0", "tau_pm", "tau1", "delta_t", "baseline")

    def cell(self, f: int, t: int) -> EffectCell:
        for c in self.cells:
            if c.f == f and c.t == t:
                return c
        raise KeyError(f"no cell for (f={f}, t={t})")

    def to_csv_text(self) -> str:
        lines = [",".join(self.CSV_COLUMNS)]
        for c in self.cells:
            row = [str(c.f), str(c.t)]
            for name in self.CSV_COLUMNS[2:]:
                value = getattr(c, name)
                row.append("" if value is None else format(value, ".17g"))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        if isinstance(self.aggregates, tuple):
            raise ValueError(f"to_json_dict needs a one-outcome table, got "
                             f"{len(self.aggregates)} outcomes")
        return {"aggregates": asdict(self.aggregates), "cells": [asdict(c) for c in self.cells]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _contrasts(labels, f, t) -> np.ndarray:
    """Contrast rows (baseline, delta0, tau0, tau_pm) per (f, t) pair: (4, pairs, columns)."""
    zero, one = np.zeros_like(f), np.ones_like(f)
    d = np.concatenate([zero, one, zero, one])
    tt = np.concatenate([zero, zero, t, t])
    x00, x10, x0t, x1t = np.split(design_values(labels, d, tt, np.tile(f, 4)), 4)
    return np.stack([x00, x10 - x00, x0t - x00, x1t - x10 - x0t + x00])


@lru_cache(maxsize=32)
def _aggregate_contrasts(labels: tuple[str, ...], f_values: tuple[int, ...]) -> np.ndarray:
    """Read-only :func:`_contrasts` at one treated friend for each of ``f_values``,
    cached per process (see the module docstring)."""
    f = np.array(f_values, dtype=float)
    weights = _contrasts(labels, f, np.ones_like(f))
    weights.setflags(write=False)
    return weights


def _absent(fit: FitResult, weights: np.ndarray) -> np.ndarray:
    """Where the contrasts ``weights`` (4, pairs, columns) are absent from ``fit``: (4, pairs)."""
    absent = (weights[..., _dropped(fit)] != 0).any(axis=-1)
    if fit.design.own_cell is not None:
        absent |= ~weights.any(axis=-1)
    return absent


def _unidentified(absent: np.ndarray) -> np.ndarray:
    """Widen a saturated fit's absent mask (4, pairs) to the fields that are
    not identified: absent, or built on an absent field. The design rows of
    a field's cells and the contrasts it builds on span each other, so one
    set avoids the dropped columns, the columns of empty cells, exactly
    when the other does."""
    baseline, delta0, tau0, tau_pm = absent
    return np.stack([baseline, baseline | delta0, baseline | tau0,
                     baseline | delta0 | tau0 | tau_pm])


def _dropped(fit: FitResult) -> np.ndarray:
    return np.isnan(fit.coefficients.reshape(len(fit.labels), -1)[:, 0])


def _outcome_coefficients(fit: FitResult) -> np.ndarray:
    """One contiguous row of coefficients per outcome, zero where a column was dropped."""
    coefficients = fit.coefficients.reshape(len(fit.labels), -1)
    return np.ascontiguousarray(np.where(_dropped(fit)[:, None], 0.0, coefficients).T)


def _aggregate_map(fit: FitResult, unique_f: np.ndarray,
                   counts: np.ndarray) -> tuple[np.ndarray, tuple[int, int, int]]:
    """The map ``w`` (3 x k) from the coefficients, zero where dropped, to the
    (direct, network, interaction) aggregates, and the units each skips. Row
    ``a`` is the ``counts``-weighted mean of the t = 1 contrast of delta0,
    tau0 or tau_pm over the ``unique_f`` where it is present and, for a
    saturated design, identified; NaN (aggregate None) where none is."""
    weights = _aggregate_contrasts(fit.labels, tuple(unique_f.tolist()))
    absent = _absent(fit, weights)
    if fit.design.own_cell is not None:
        absent = _unidentified(absent)
    present_counts = np.where(absent[1:], 0, counts)
    total = present_counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        w = np.einsum("af,afk->ak", present_counts, weights[1:]) / total[:, None]
    return w, tuple(int(n) for n in counts.sum() - total)


def recover_effect_table(fit: FitResult, t_grid=None) -> EffectTable:
    """Build the effect table implied by a fit.

    The rows are the distinct friend counts of the fit's units, from its
    design's cells (in ascending f order). ``t_grid`` restricts the treated
    friend counts tabulated per f (default 1..f; an empty grid yields the
    aggregates alone). The aggregates are :func:`_aggregate_map` applied to
    the coefficients. A multi-outcome fit needs ``t_grid=()`` and yields a
    tuple of aggregates, one per outcome column.
    """
    design_cells = fit.design.cells
    unique_f, starts = np.unique(design_cells.f, return_index=True)
    counts = np.add.reduceat(design_cells.counts, starts)

    pairs = [(int(f), int(t)) for f in unique_f
             for t in (t_grid if t_grid is not None else range(1, int(f) + 1)) if 1 <= t <= f]
    rows = []
    if pairs:
        if fit.n_outcomes is not None:
            raise ValueError("per-cell effect tables need a one-outcome fit; pass t_grid=()")
        f_cells, t_cells = np.array(pairs, dtype=float).T
        weights = _contrasts(fit.labels, f_cells, t_cells)
        [coefficients] = _outcome_coefficients(fit)
        baseline, delta0, tau0, tau_pm = np.where(_absent(fit, weights), np.nan,
                                                  weights @ coefficients)
        tau1, delta_t = complete_effects(delta0, tau0, tau_pm)
        rows = np.column_stack([delta0, tau0, tau_pm, tau1, delta_t, baseline]).tolist()
    cells = [EffectCell(f, t, *(None if math.isnan(v) else v for v in row))
             for (f, t), row in zip(pairs, rows)]

    w, skipped_units = _aggregate_map(fit, unique_f, counts)
    aggregates = tuple(
        EffectAggregates(*(None if math.isnan(v) else v for v in (w @ coefficients).tolist()),
                         skipped_units=skipped_units)
        for coefficients in _outcome_coefficients(fit))
    if fit.n_outcomes is None:
        (aggregates,) = aggregates
    return EffectTable(cells=tuple(cells), aggregates=aggregates)
