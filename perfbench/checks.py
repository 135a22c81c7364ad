"""Output checks for benchmark ops; every failure raises ``CheckError``.

The checks rebuild what the program should have written from the generated
inputs alone: design columns come from the label grammar evaluated here,
coefficients from ``numpy.linalg.lstsq``, effects from design-row contrasts,
so a check does not trust the code it checks. They run outside the timed
region.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

# fixed before any run from float64 alone: sqrt(machine epsilon), ~1.5e-8.
# Backward-stable solvers agree to about cond * eps, far inside this.
RTOL = math.sqrt(float(np.finfo(np.float64).eps))

EFFECT_COLUMNS = ("f", "t", "delta0", "tau0", "tau_pm", "tau1", "delta_t", "baseline")
TARGETS = ("direct", "network", "interaction")


class CheckError(Exception):
    """An op's output disagrees with what its inputs imply."""


def label_column(label: str, d, t, f) -> np.ndarray:
    """Evaluate one design-column label (``D:T^2:F^1``, ``T=2:F=3``, ...)."""
    d, t, f = (np.asarray(v, dtype=float) for v in (d, t, f))
    out = np.ones(np.broadcast(d, t, f).shape)
    for atom in label.split(":"):
        if atom == "1":
            continue
        if atom == "D":
            out = out * d
        elif atom == "T":
            out = out * t
        elif atom == "F":
            out = out * f
        elif atom == "R":
            out = out * (t / f)
        elif atom == "T^2":
            out = out * t * t
        elif atom.startswith("F^"):
            out = out * f ** int(atom[2:])
        elif atom.startswith("F="):
            out = out * (f == int(atom[2:]))
        elif atom.startswith("T="):
            out = out * (t == int(atom[2:]))
        else:
            raise CheckError(f"unknown column label {label!r}")
    return out


def design(labels, d, t, f) -> np.ndarray:
    return np.column_stack([label_column(label, d, t, f) for label in labels])


def _number(value, what: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise CheckError(f"{what}: {value!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckError(f"{what}: {value} is not finite")
    return value


# ----------------------------------------------------------------------------
# fit: one fit_<spec>.json and effects_<spec>.csv per model


def check_fit_payload(payload: dict, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Check a fit JSON against an lstsq oracle; returns coefficients (NaN = dropped)."""
    labels = payload["labels"]
    coefs = payload["coefficients"]
    dropped = set(payload["dropped_columns"])
    if len(coefs) != len(labels) or not dropped <= set(labels):
        raise CheckError("coefficients, labels and dropped_columns disagree")
    retained = [j for j, label in enumerate(labels) if label not in dropped]
    beta = np.full(len(labels), np.nan)
    for j, label in enumerate(labels):
        if label in dropped:
            if coefs[j] is not None:
                raise CheckError(f"dropped column {label} has coefficient {coefs[j]!r}, not null")
        else:
            if coefs[j] is None:
                raise CheckError(f"retained column {label} has a null coefficient")
            beta[j] = _number(coefs[j], f"coefficient {label}")

    # one SVD answers both questions: the oracle coefficients on the retained
    # columns, and whether each dropped column lies in their span
    dropped_idx = [j for j, label in enumerate(labels) if label in dropped]
    x_kept = x[:, retained]
    solution, _, rank, _ = np.linalg.lstsq(x_kept, np.column_stack([y, x[:, dropped_idx]]),
                                           rcond=None)
    if rank != len(retained) or payload["rank"] != len(retained):
        raise CheckError(f"rank {payload['rank']} with {len(retained)} retained columns; "
                         f"the retained columns have rank {rank}")
    for pos, j in enumerate(dropped_idx, start=1):
        left = np.linalg.norm(x[:, j] - x_kept @ solution[:, pos])
        if left > RTOL * np.linalg.norm(x[:, j]):
            raise CheckError(f"dropped column {labels[j]} is not spanned by the retained columns")
    oracle = solution[:, 0]
    # compare each coefficient by its contribution to the fitted vector, so
    # the tolerance does not depend on how a column is scaled
    y_norm = float(np.linalg.norm(y))
    for pos, j in enumerate(retained):
        col_norm = float(np.linalg.norm(x[:, j]))
        error = abs(beta[j] - oracle[pos]) * col_norm
        if error > RTOL * max(y_norm, col_norm * abs(oracle[pos])):
            raise CheckError(f"coefficient {labels[j]} = {beta[j]!r}, lstsq oracle {oracle[pos]!r}")

    robust = payload.get("vcov_robust")
    if robust is None:
        raise CheckError("vcov_robust missing")
    v = np.asarray(robust, dtype=float).reshape(-1, len(retained)) if retained else np.zeros((0, 0))
    if v.shape != (len(retained), len(retained)) or not np.isfinite(v).all():
        raise CheckError(f"vcov_robust has shape {v.shape} or non-finite entries")
    if v.size and np.abs(v - v.T).max() > RTOL * np.abs(v).max():
        raise CheckError("vcov_robust is not symmetric")
    return beta


def contrasts(labels, f, t) -> dict:
    """Every estimand as a contrast of design rows x(d, t, f), one row per (f, t):
      baseline = x(0,0,f), delta0 = x(1,0,f) - x(0,0,f),
      tau0 = x(0,t,f) - x(0,0,f), tau_pm = x(1,t,f) - x(1,0,f) - x(0,t,f) + x(0,0,f).
    """
    zero, one = np.zeros_like(f), np.ones_like(f)
    x00, x10, x0t, x1t = np.split(design(labels, np.concatenate([zero, one, zero, one]),
                                         np.concatenate([zero, zero, t, t]), np.tile(f, 4)), 4)
    return {"baseline": x00, "delta0": x10 - x00, "tau0": x0t - x00,
            "tau_pm": x1t - x10 - x0t + x00}


def expected_effects(labels, beta, dropped, f_values) -> dict:
    """Effect table implied by the coefficients, cell (f, t) -> quantity -> value|None.

    A quantity is absent when its contrast weights a dropped column, or, in a
    saturated dummy design, when no column carries it at all.
    """
    cells = [(int(f), t) for f in np.unique(f_values) for t in range(1, int(f) + 1)]
    if not cells:
        return {}
    rows = contrasts(labels, np.array([c[0] for c in cells], dtype=float),
                     np.array([c[1] for c in cells], dtype=float))
    dropped_mask = np.array([label in dropped for label in labels])
    saturated = any("=" in label for label in labels)
    coef = np.where(dropped_mask, 0.0, beta)
    table = {}
    for row, cell in enumerate(cells):
        entry = {}
        for name, weights in rows.items():
            w = weights[row]
            if (w[dropped_mask] != 0).any() or (saturated and not w.any()):
                entry[name] = None
            else:
                entry[name] = (float(w @ coef), float(np.abs(w * coef).sum()))
        table[cell] = entry
    return table


def check_effects_csv(text: str, labels, beta, dropped, f_values) -> None:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    parsed = list(csv.reader(io.StringIO("\n".join(rows))))
    if not parsed or tuple(parsed[0]) != EFFECT_COLUMNS:
        raise CheckError(f"effects CSV header is {parsed[0] if parsed else None}")
    expected = expected_effects(labels, beta, dropped, f_values)
    seen = set()
    for row in parsed[1:]:
        if len(row) != len(EFFECT_COLUMNS):
            raise CheckError(f"effects row {row} has {len(row)} fields")
        cell = (int(row[0]), int(row[1]))
        if cell in seen or cell not in expected:
            raise CheckError(f"effects cell {cell} is duplicated or outside the frame's support")
        seen.add(cell)
        values = {}
        for name, text_value in zip(EFFECT_COLUMNS[2:], row[2:]):
            values[name] = None if text_value == "" else _number(text_value, f"{name} at {cell}")
        for name in ("baseline", "delta0", "tau0", "tau_pm"):
            want = expected[cell][name]
            got = values[name]
            if want is None:
                if got is not None:
                    raise CheckError(f"{name} at {cell} should be absent (empty), got {got!r}")
                continue
            if got is None:
                raise CheckError(f"{name} at {cell} is absent, expected {want[0]!r}")
            if abs(got - want[0]) > RTOL * (1.0 + want[1]):
                raise CheckError(f"{name} at {cell} = {got!r}, contrast gives {want[0]!r}")
        for total, base in (("tau1", "tau0"), ("delta_t", "delta0")):
            if values[base] is None or values["tau_pm"] is None:
                if values[total] is not None:
                    raise CheckError(f"{total} at {cell} should be absent (empty), got {values[total]!r}")
                continue
            if values[total] is None:
                raise CheckError(f"{total} at {cell} is absent although {base} and tau_pm exist")
            closed = values[base] + values["tau_pm"]
            if abs(values[total] - closed) > RTOL * (1.0 + abs(values[base]) + abs(values["tau_pm"])):
                raise CheckError(f"{total} = {values[total]!r} at {cell}, but {base} + tau_pm = {closed!r}")
    if seen != set(expected):
        raise CheckError(f"effects CSV misses {len(set(expected) - seen)} cells")


def check_fit_outputs(out_dir: Path, models, frames) -> None:
    """``frames`` maps each model text to (y, d, t, f) of the rows it was fit on."""
    found = {}
    for path in sorted(out_dir.glob("fit_*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        found[payload["metadata"]["model"]] = (payload, path)
    if sorted(found) != sorted(models):
        raise CheckError(f"fit files for {sorted(found)}, expected {sorted(models)}")
    for model in models:
        payload, path = found[model]
        y, d, t, f = frames[model]
        x = design(payload["labels"], d, t, f)
        beta = check_fit_payload(payload, y, x)
        effects = path.with_name("effects_" + path.name[len("fit_"):-len(".json")] + ".csv")
        if not effects.is_file():
            raise CheckError(f"{effects.name} missing")
        check_effects_csv(effects.read_text(encoding="utf-8"), payload["labels"], beta,
                          set(payload["dropped_columns"]), f)


# ----------------------------------------------------------------------------
# replicate: <table>_comparison.csv


def read_comparison(path: Path, estimators, scenarios) -> dict:
    """Parse a comparison CSV; every cell must be present and finite."""
    rows = [line for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]
    parsed = list(csv.DictReader(io.StringIO("\n".join(rows))))
    cells = {}
    for row in parsed:
        key = (row["estimator"], row["scenario"], row["target"])
        cells[key] = tuple(_number(row[name], f"{name} of {key}")
                           for name in ("bias", "sd", "true_value"))
    want = {(e, s, tg) for e in estimators for s in scenarios for tg in TARGETS}
    if set(cells) != want or len(parsed) != len(want):
        raise CheckError(f"comparison has {len(parsed)} cells, expected {len(want)}")
    return cells


def aggregate_contrasts(labels, f_values) -> dict:
    """Per target, the contrast at one treated friend averaged over the frame's units."""
    f_unique, counts = np.unique(np.asarray(f_values), return_counts=True)
    f = f_unique.astype(float)
    rows = contrasts(labels, f, np.ones_like(f))
    weights = counts / counts.sum()
    return {"direct": weights @ rows["delta0"], "network": weights @ rows["tau0"],
            "interaction": weights @ rows["tau_pm"]}


def recompute_comparison(master_seed: int, reps: int, n_units: int, radius: float,
                         estimators, scenarios) -> dict:
    """Bias, SD and true value per cell, from the public layer functions and lstsq.

    Each replication draws its positions and frame from
    ``child_seeds(master_seed, rep, 2)``, as the study does.
    """
    from netcrf.design import build_design, parse_model_spec
    from netcrf.dgp import dgp_scenario, simulate_frame, true_aggregate_effects
    from netcrf.graph import build_geometric_network, generate_positions
    from netcrf.rng import child_seeds

    specs = [parse_model_spec(e) for e in estimators]
    cells = {}
    for scenario in scenarios:
        params = dgp_scenario(scenario)
        estimates = {e: [] for e in estimators}
        truths = []
        for rep in range(reps):
            seed_positions, seed_frame = child_seeds(master_seed, rep, 2)
            network = build_geometric_network(generate_positions(n_units, seed_positions), radius)
            frame = simulate_frame(network, params, seed_frame)
            true = true_aggregate_effects(params, frame.f)
            truths.append([getattr(true, tg) for tg in TARGETS])
            for name, spec in zip(estimators, specs):
                x = build_design(frame, spec)
                beta = np.linalg.lstsq(x.values, frame.y, rcond=None)[0]
                contrast = aggregate_contrasts(x.labels, frame.f)
                estimates[name].append([float(contrast[tg] @ beta) for tg in TARGETS])
        true_mean = np.mean(truths, axis=0)
        for name in estimators:
            values = np.asarray(estimates[name])
            for pos, target in enumerate(TARGETS):
                bias = abs(values[:, pos].mean() - true_mean[pos])
                sd = values[:, pos].std(ddof=1)
                cells[(name, scenario, target)] = (float(bias), float(sd), float(true_mean[pos]))
    return cells


def compare_cells(got: dict, want: dict) -> None:
    for key, expected in want.items():
        for name, a, b in zip(("bias", "sd", "true_value"), got[key], expected):
            if abs(a - b) > RTOL * (1.0 + abs(b)):
                raise CheckError(f"{name} of {key} = {a!r}, independent recompute {b!r}")
