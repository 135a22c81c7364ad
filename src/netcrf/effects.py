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
friend count other than its own. Aggregates skip absent cells and count the
units they leave out. For a saturated design they also skip a field that
is not identified, because its contrast reaches an empty cell; the table
still shows it as the value of the kept columns. With (0, 0, f) empty, for
example, ``T=t:F=f`` is kept and its coefficient, the table's tau0, is the
level of (0, t, f), not a contrast. Such a field is absent itself or builds
on an absent one: delta0 and tau0 build on the baseline, tau_pm on all
three. Contrasts and the absent rules depend on the design alone, so a
multi-outcome fit evaluates them once and aggregates each column
separately. The aggregates' contrasts at one treated friend are kept in a
small per-process cache keyed by the column labels and the distinct friend
counts, since a Monte Carlo study asks for the same few in every replication.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .design import ModelKind, ModelSpec, design_values, format_model_spec
from .dgp import friend_count_multiplicities
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
            "aggregates": asdict(self.aggregates),
            "cells": [asdict(c) for c in self.cells],
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


@lru_cache(maxsize=32)
def _aggregate_contrasts(labels: tuple[str, ...], f_values: tuple[int, ...]) -> np.ndarray:
    """Read-only :func:`_contrasts` at one treated friend for each of ``f_values``.

    A Monte Carlo study asks for the same few (labels, friend counts) keys
    in every replication, so they are computed once per process.
    """
    f = np.array(f_values, dtype=float)
    weights = _contrasts(labels, f, np.ones_like(f))
    weights.setflags(write=False)
    return weights


def _absent(fit: FitResult, spec: ModelSpec, weights: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Where the contrasts ``weights`` (4, pairs, columns) at friend counts
    ``f`` are absent from ``fit``: (4, pairs)."""
    absent = (weights[..., _dropped(fit)] != 0).any(axis=-1)
    if spec.saturated:
        absent |= ~weights.any(axis=-1)
    if spec.kind == ModelKind.CRF1_SHORT:
        absent |= f != spec.f
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


def recover_effect_table(
    fit: FitResult,
    spec: ModelSpec,
    f_values,
    t_grid=None,
) -> EffectTable:
    """Build the effect table implied by a fit.

    ``f_values`` is the realized friend-count column of the analyzed frame
    (with multiplicity), whole numbers >= 1; unique values define the table
    rows and the multiplicities weight the aggregates. ``t_grid`` restricts the treated
    friend counts tabulated per f (default 1..f; an empty grid yields the
    aggregates alone). Aggregates average the per-unit effect functions
    evaluated at one treated friend over the empirical f distribution,
    skipping absent cells and, for a saturated design, fields that are not
    identified (``EffectAggregates.skipped_units`` counts the units left
    out). A multi-outcome fit needs
    ``t_grid=()`` and yields a tuple of aggregates, one per outcome column.
    """
    unique_f, counts = friend_count_multiplicities(f_values)

    pairs = [(int(f), int(t)) for f in unique_f
             for t in (t_grid if t_grid is not None else range(1, int(f) + 1)) if 1 <= t <= f]
    rows = []
    if pairs:
        if fit.n_outcomes is not None:
            raise ValueError("per-cell effect tables need a one-outcome fit; pass t_grid=()")
        f_cells, t_cells = np.array(pairs, dtype=float).T
        weights = _contrasts(fit.labels, f_cells, t_cells)
        [coefficients] = _outcome_coefficients(fit)
        baseline, delta0, tau0, tau_pm = np.where(_absent(fit, spec, weights, f_cells), np.nan,
                                                  weights @ coefficients)
        tau1, delta_t = complete_effects(delta0, tau0, tau_pm)
        rows = np.column_stack([delta0, tau0, tau_pm, tau1, delta_t, baseline]).tolist()
    cells = [EffectCell(f, t, *(None if math.isnan(v) else v for v in row))
             for (f, t), row in zip(pairs, rows)]

    # the t = 1 contrasts, their absent cells and so each target's weight
    # depend on the design alone
    weights = _aggregate_contrasts(fit.labels, tuple(unique_f.tolist()))
    absent = _absent(fit, spec, weights, unique_f)
    if spec.saturated:
        absent = _unidentified(absent)
    targets = [(present, counts[present], int(counts[present].sum()), int(counts[~present].sum()))
               for present in ~absent[1:]]
    aggregates = tuple(_aggregates((weights @ coefficients)[1:], targets)
                       for coefficients in _outcome_coefficients(fit))
    if fit.n_outcomes is None:
        (aggregates,) = aggregates
    return EffectTable(cells=tuple(cells), aggregates=aggregates, model=format_model_spec(spec))


def _aggregates(per_f, targets) -> EffectAggregates:
    """Count-weighted means of the per-f (delta0, tau0, tau_pm) at t = 1 over
    their present values, with the units each skips; a mean is None when
    every value is absent. ``targets`` holds per aggregate the present mask,
    the present counts, their sum and the skipped units."""
    means = [float(values[present] @ present_counts / weight) if weight else None
             for values, (present, present_counts, weight, _) in zip(per_f, targets)]
    return EffectAggregates(*means, skipped_units=tuple(target[3] for target in targets))

