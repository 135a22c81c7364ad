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

An entry is absent (never zero) when its contrast weights a dropped column,
when a saturated design has no column carrying it (its contrast is all zero,
as for ``crf1long`` beyond ``f_max`` or ``t_max``), or for ``crf1short`` at a
friend count other than its own. Aggregates skip absent cells with a logged
warning.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dgp import SampleFrame
from .design import ModelKind, ModelSpec, design_values, format_model_spec
from .lsq import FitResult

logger = logging.getLogger(__name__)


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
    """Frame-weighted aggregate effects; None when no cell was available."""

    direct: float | None
    network: float | None
    interaction: float | None


@dataclass(frozen=True)
class EffectTable:
    cells: tuple[EffectCell, ...]
    aggregates: EffectAggregates
    model: str

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
        return {
            "model": self.model,
            "aggregates": {
                "direct": self.aggregates.direct,
                "network": self.aggregates.network,
                "interaction": self.aggregates.interaction,
            },
            "cells": [
                {name: getattr(c, name) for name in self.CSV_COLUMNS}
                for c in self.cells
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _contrasts(labels, f, t) -> np.ndarray:
    """Contrast rows (baseline, delta0, tau0, tau_pm) per (f, t) pair: (4, pairs, columns)."""
    zero, one = np.zeros_like(f), np.ones_like(f)
    d = np.concatenate([zero, one, zero, one])
    tt = np.concatenate([zero, zero, t, t])
    x00, x10, x0t, x1t = np.split(design_values(labels, d, tt, np.tile(f, 4)), 4)
    return np.stack([x00, x10 - x00, x0t - x00, x1t - x10 - x0t + x00])


def _evaluate(fit: FitResult, spec: ModelSpec, f, t) -> np.ndarray:
    """(baseline, delta0, tau0, tau_pm) at each (f, t) pair; NaN marks an absent entry."""
    f = np.asarray(f, dtype=float)
    weights = _contrasts(fit.labels, f, np.asarray(t, dtype=float))
    dropped = np.isnan(fit.coefficients)
    absent = (weights[..., dropped] != 0).any(axis=-1)
    if spec.kind in (ModelKind.CRF1_LONG, ModelKind.CRF1_SHORT):
        absent |= ~weights.any(axis=-1)
    if spec.kind == ModelKind.CRF1_SHORT:
        absent |= f != spec.f
    return np.where(absent, np.nan, weights @ np.where(dropped, 0.0, fit.coefficients))


def recover_effect_table(
    fit: FitResult,
    spec: ModelSpec,
    f_values,
    t_grid=None,
) -> EffectTable:
    """Build the effect table implied by a fit.

    ``f_values`` is the realized friend-count column of the analyzed frame
    (with multiplicity); unique values define the table rows and the
    multiplicities weight the aggregates. ``t_grid`` restricts the treated
    friend counts tabulated per f (default 1..f; an empty grid yields the
    aggregates alone). Aggregates average the per-unit effect functions
    evaluated at one treated friend over the empirical f distribution,
    skipping absent cells with a warning.
    """
    f_values = np.asarray(f_values, dtype=np.int64)
    if f_values.size == 0:
        raise ValueError("f_values must be nonempty")
    if (f_values < 1).any():
        raise ValueError("all f_values must be >= 1")
    counts = np.bincount(f_values)
    unique_f = np.flatnonzero(counts)
    counts = counts[unique_f]

    pairs = [(int(f), int(t)) for f in unique_f
             for t in (t_grid if t_grid is not None else range(1, int(f) + 1)) if 1 <= t <= f]
    cells = []
    if pairs:
        f_cells, t_cells = np.array(pairs, dtype=float).T
        baseline, delta0, tau0, tau_pm = _evaluate(fit, spec, f_cells, t_cells)
        tau1, delta_t = complete_effects(delta0, tau0, tau_pm)
        rows = np.column_stack([delta0, tau0, tau_pm, tau1, delta_t, baseline]).tolist()
        for (f, t), row in zip(pairs, rows):
            cells.append(EffectCell(f, t, *(None if math.isnan(v) else v for v in row)))

    _, direct, network, interaction = _evaluate(fit, spec, unique_f, np.ones(unique_f.size))
    aggregates = EffectAggregates(
        direct=_weighted_aggregate(direct, counts, "direct"),
        network=_weighted_aggregate(network, counts, "network"),
        interaction=_weighted_aggregate(interaction, counts, "interaction"),
    )
    return EffectTable(cells=tuple(cells), aggregates=aggregates, model=format_model_spec(spec))


def _weighted_aggregate(values, counts, name) -> float | None:
    """Count-weighted mean of per-f values at t = 1, skipping absent (NaN) ones."""
    present = ~np.isnan(values)
    weight = int(counts[present].sum())
    skipped = int(counts[~present].sum())
    if skipped:
        logger.warning(
            "aggregate %s effect skipped %d of %d units with absent cells",
            name, skipped, skipped + weight,
        )
    if weight == 0:
        return None
    return float(values[present] @ counts[present] / weight)


@dataclass(frozen=True)
class CellMeans:
    """Mean outcome and count per occupied (d, t, f) cell."""

    stats: dict = field(default_factory=dict)

    def mean(self, d: int, t: int, f: int) -> float:
        return self.stats[(d, t, f)][0]

    def count(self, d: int, t: int, f: int) -> int:
        return self.stats[(d, t, f)][1]

    def __contains__(self, key) -> bool:
        return key in self.stats

    def items(self):
        return self.stats.items()


def cell_means(frame: SampleFrame) -> CellMeans:
    """Arithmetic mean outcome per occupied (d, t, f) cell."""
    if frame.n_selected == 0:
        raise ValueError("frame must be nonempty")
    stats: dict[tuple[int, int, int], tuple[float, int]] = {}
    keys = np.stack([frame.d, frame.t, frame.f], axis=1)
    unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    for idx, key in enumerate(unique_keys):
        mask = inverse == idx
        stats[tuple(int(v) for v in key)] = (float(frame.y[mask].mean()), int(mask.sum()))
    return CellMeans(stats=stats)
