"""Command-line front end.

Commands:
  simulate      draw a network + outcome frame, write frame.csv
  fit           fit model specs to a frame (or raw nodes/edges/outcome data)
  replicate     rerun a benchmark table grid and compare against references
  degree-stats  degree-distribution summary, optional radius calibration

A config file (single JSON document) can supply any option; command-line
flags override file values, and unknown config keys are rejected. Every
emitted file embeds the config and seed needed to regenerate it. Exit codes:
0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .design import (
    ModelKind,
    VALID_SPEC_FORMS,
    build_design,
    format_model_spec,
    parse_model_spec,
)
from .dgp import (
    DgpParams,
    SCENARIO_IDS,
    SampleFrame,
    assign_treatment,
    dgp_scenario,
    simulate_frame,
)
from .effects import recover_effect_table
from .errors import DataError, NumericalError
from .graph import (
    DEFAULT_RADIUS,
    build_geometric_network,
    calibrate_radius,
    degree_stats,
    generate_positions,
    ingest_edges,
    ingest_network,
    read_table,
    read_text,
    reject_rows,
    sort_ids,
    treated_neighbor_counts,
)
from .lsq import fit as lsq_fit
from .montecarlo import replicate_table
from .rng import GENERATOR_NAME

_PARAM_KEYS = (
    "beta0", "beta_f", "beta_d", "beta_f2", "beta_tau", "beta_r",
    "beta_dtau", "beta_dr", "noise_sd", "p_treat",
)


class UsageError(Exception):
    pass


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what a config value must be: a test and how the error names it
_INTEGER = (_is_integer, "an integer")
_NUMBER = (_is_number, "a number")
_STRING = (lambda value: isinstance(value, str), "a string")
_BOOLEAN = (lambda value: isinstance(value, bool), "true or false")
_PARAMS = (lambda value: isinstance(value, dict) and all(map(_is_number, value.values())),
           "a JSON object of numbers")
_MODELS = (lambda value: isinstance(value, list) and all(isinstance(m, str) for m in value),
           "a JSON list of model spec strings")


def _load_config(path: str | None, allowed: dict[str, tuple]) -> dict:
    """The JSON object in the config file at ``path``; ``allowed`` maps each
    key it may hold to the test its value, unless null, must pass."""
    if path is None:
        return {}
    try:
        config = json.loads(read_text(path, "config"))
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(config) - set(allowed)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}; allowed: {sorted(allowed)}")
    for key, value in config.items():
        valid, expected = allowed[key]
        if value is not None and not valid(value):
            raise UsageError(f"config key '{key}' must be {expected}")
    return config


def _merged(args: argparse.Namespace, config: dict, key: str, default=None):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config and config[key] is not None:
        return config[key]
    return default


def _ensure_out_dir(path_text: str) -> Path:
    out = Path(path_text)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".netcrf-write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise DataError(f"output directory {out} is not writable: {exc}") from None
    return out


def _resolve_params(scenario: str | None, overrides: dict) -> DgpParams:
    bad = set(overrides) - set(_PARAM_KEYS)
    if bad:
        raise UsageError(f"unknown parameter keys: {sorted(bad)}; allowed: {list(_PARAM_KEYS)}")
    clean = {}
    for key, value in overrides.items():
        try:
            clean[key] = float(value)
        except ValueError:
            raise UsageError(f"--param {key} expects a number, got {value!r}") from None
    if scenario is not None:
        if scenario not in SCENARIO_IDS:
            raise UsageError(f"unknown scenario {scenario!r}; expected one of {SCENARIO_IDS}")
        return dgp_scenario(scenario, **clean)
    return DgpParams(**clean)


def _format_real(value: float) -> str:
    return format(float(value), ".17g")


def write_frame_csv(path: Path, frame: SampleFrame, metadata: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("# " + json.dumps(metadata) + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "y", "d", "t", "f"])
        for i in range(frame.n_selected):
            writer.writerow([
                int(frame.ids[i]), _format_real(frame.y[i]),
                int(frame.d[i]), int(frame.t[i]), int(frame.f[i]),
            ])


def read_frame_csv(source) -> tuple[SampleFrame, dict]:
    """Parse a frame CSV written by ``simulate``; returns (frame, metadata).

    ``# {json}`` lines hold the metadata: each JSON object among them is
    merged into it, and other ``#`` lines are skipped. They are blanked
    before the rows are read, so that every error names the line of the file.
    A line ends at LF, CR or CRLF, as the csv module reads the file.
    """
    lines = io.StringIO(read_text(source, "frame"), newline="").readlines()
    metadata = {}
    for k, line in enumerate(lines):
        if line.startswith("#"):
            lines[k] = "\n"
            try:
                value = json.loads(line[1:].strip())
            except json.JSONDecodeError:
                continue
            if isinstance(value, dict):
                metadata.update(value)
    (ids, y, d, t, f), rows = read_table("".join(lines), ("id", "y", "d", "t", "f"), "frame CSV",
                                         (int, float, int, int, int),
                                         "frame CSV row {line}: malformed row {row!r}")
    _check_outcomes(rows, y, d, "frame CSV")
    _, repeat = sort_ids(ids)
    if repeat is not None:
        raise DataError(f"frame CSV row {rows[0][repeat]}: duplicate unit id {ids[repeat]}")
    reject_rows(rows, f < 1, "frame CSV row {line}: f must be >= 1, got {row[4]!r}")
    reject_rows(rows, (t < 0) | (t > f),
                "frame CSV row {line}: t must satisfy 0 <= t <= f, got t={row[3]!r}, f={row[4]!r}")
    try:
        frame = SampleFrame(y=y, d=d, t=t, f=f, ids=ids,
                            n_total=int(metadata.get("n_total", ids.size)))
    except (TypeError, ValueError) as exc:
        raise DataError(f"frame CSV is inconsistent: {exc}") from None
    return frame, metadata


def _check_outcomes(rows, y: np.ndarray, d: np.ndarray, what: str) -> None:
    """Reject the first row with a non-finite outcome ``y`` (column 1), then
    the first with a treatment ``d`` (column 2) other than 0 or 1."""
    reject_rows(rows, ~np.isfinite(y), what + " row {line}: outcome y is not finite ({row[1]!r})")
    reject_rows(rows, (d != 0) & (d != 1),
                what + " row {line}: treatment column d must be 0/1, got {row[2]!r}")


def _load_real_data(nodes_path: str, edges_path: str) -> SampleFrame:
    """Real-data mode: nodes.csv has header id,y,d; edges.csv has src,dst.
    The frame holds the units with F > 0, and may be empty."""
    (ids, y, d), rows = read_table(read_text(nodes_path, "nodes"), ("id", "y", "d"), "nodes",
                                   (int, float, int), "nodes row {line}: malformed row {row!r}")
    _check_outcomes(rows, y, d, "nodes")
    network = ingest_edges(ids, rows[0], edges_path)
    t = treated_neighbor_counts(network, d)
    retained = network.degree > 0
    return SampleFrame(
        y=y[retained], d=d[retained], t=t[retained],
        f=network.degree[retained], ids=ids[retained], n_total=network.n,
    )


def _spec_slug(text: str) -> str:
    return text.replace(":", "-").replace("=", "").replace(",", "-")


def cmd_simulate(args: argparse.Namespace) -> int:
    allowed = {"n_units": _INTEGER, "radius": _NUMBER, "scenario": _STRING, "seed": _INTEGER,
               "out": _STRING, "params": _PARAMS, "write_network": _BOOLEAN,
               "frame_name": _STRING}
    config = _load_config(args.config, allowed)
    n_units = int(_merged(args, config, "n_units", 1000))
    radius = float(_merged(args, config, "radius", DEFAULT_RADIUS))
    scenario = _merged(args, config, "scenario")
    seed = int(_merged(args, config, "seed", 0))
    out = _ensure_out_dir(str(_merged(args, config, "out", ".")))
    overrides = dict(config.get("params") or {})
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--param expects key=value, got {item!r}")
        overrides[key] = value
    params = _resolve_params(scenario, overrides)

    positions = generate_positions(n_units, seed)
    network = build_geometric_network(positions, radius)
    frame = simulate_frame(network, params, seed)

    metadata = {
        "command": "simulate",
        "package_version": __version__,
        "generator": GENERATOR_NAME,
        "seed": seed,
        "n_units": n_units,
        "n_total": n_units,
        "radius": radius,
        "scenario": scenario,
        "params": {k: getattr(params, k) for k in _PARAM_KEYS},
    }
    frame_path = out / str(_merged(args, config, "frame_name", "frame.csv"))
    write_frame_csv(frame_path, frame, metadata)
    if _merged(args, config, "write_network", False):
        net_path = out / "network.json"
        payload = network.to_json_dict()
        payload["metadata"] = metadata
        net_path.write_text(json.dumps(payload), encoding="utf-8")

    d_full = np.zeros(network.n, dtype=np.int64)
    d_full[frame.ids] = frame.d
    summary = degree_stats(network, d_full)
    print(json.dumps({
        "frame": str(frame_path),
        "n_selected": frame.n_selected,
        "n_total": frame.n_total,
        "degree_summary": asdict(summary),
    }))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    allowed = {"frame": _STRING, "nodes": _STRING, "edges": _STRING, "models": _MODELS,
               "out": _STRING, "rank_policy": _STRING}
    config = _load_config(args.config, allowed)
    out = _ensure_out_dir(str(_merged(args, config, "out", ".")))
    model_texts = list(args.model or []) or list(config.get("models") or [])
    if not model_texts:
        raise UsageError("at least one --model spec is required; valid forms: "
                         + ", ".join(VALID_SPEC_FORMS))
    try:
        specs = [parse_model_spec(text) for text in model_texts]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    seen = {}
    for text, spec in zip(model_texts, specs):
        normal = format_model_spec(spec)
        if normal in seen:
            raise UsageError(f"model spec {text!r} repeats {seen[normal]!r}: both are {normal}")
        seen[normal] = text

    frame_path = _merged(args, config, "frame")
    nodes_path = _merged(args, config, "nodes")
    edges_path = _merged(args, config, "edges")
    if frame_path is not None:
        frame, frame_meta = read_frame_csv(frame_path)
        empty = f"frame CSV {frame_path} has no rows"
    elif nodes_path is not None and edges_path is not None:
        frame = _load_real_data(nodes_path, edges_path)
        frame_meta = {"nodes": str(nodes_path), "edges": str(edges_path)}
        empty = f"nodes file {nodes_path} and edges file {edges_path} have no units with F > 0"
    else:
        raise UsageError("provide --frame, or both --nodes and --edges")
    if frame.n_selected == 0:
        raise DataError(f"{empty}; nothing to estimate on")

    rank_policy = _merged(args, config, "rank_policy", "auto")
    if rank_policy not in ("auto", "error", "drop"):
        raise UsageError("--rank-policy must be auto, error, or drop")

    # every spec is fitted before any file is written, so a failing spec leaves none
    fits = []
    for spec in specs:
        text = format_model_spec(spec)
        policy = rank_policy
        if policy == "auto":
            policy = "drop" if spec.saturated else "error"
        work = frame
        if spec.kind == ModelKind.CRF1_SHORT:
            work = frame.restrict_to_f(spec.f)
            if work.n_selected == 0:
                raise DataError(f"no rows with F={spec.f} for {text}")
        result = lsq_fit(build_design(work, spec), work.cell_sums(), on_rank_deficiency=policy)
        fits.append((text, policy, result, recover_effect_table(result)))

    for text, policy, result, table in fits:
        metadata = {
            "command": "fit",
            "package_version": __version__,
            "model": text,
            "rank_policy": policy,
            "source": frame_meta,
        }
        slug = _spec_slug(text)
        agg = table.aggregates
        skipped = dict(zip(("direct", "network", "interaction"), agg.skipped_units))
        fit_payload = result.to_json_dict()
        fit_payload["skipped_units"] = skipped
        fit_payload["metadata"] = metadata
        (out / f"fit_{slug}.json").write_text(json.dumps(fit_payload), encoding="utf-8")
        effects_path = out / f"effects_{slug}.csv"
        effects_path.write_text("# " + json.dumps(metadata) + "\n" + table.to_csv_text(),
                                encoding="utf-8")
        print(json.dumps({
            "model": text,
            "n": result.n,
            "rank": result.rank,
            "dropped_columns": list(result.dropped_columns),
            "aggregates": {"direct": agg.direct, "network": agg.network,
                           "interaction": agg.interaction},
            "skipped_units": skipped,
            "files": [str(out / f"fit_{slug}.json"), str(effects_path)],
        }))
    return 0


def cmd_replicate(args: argparse.Namespace) -> int:
    allowed = {"reps": _INTEGER, "seed": _INTEGER, "out": _STRING, "n_jobs": _INTEGER,
               "n_units": _INTEGER}
    config = _load_config(args.config, allowed)
    out = _ensure_out_dir(str(_merged(args, config, "out", ".")))
    reps = _merged(args, config, "reps")
    n_units = _merged(args, config, "n_units")
    comparison = replicate_table(
        args.table,
        repetitions=None if reps is None else int(reps),
        master_seed=int(_merged(args, config, "seed", 1234)),
        n_jobs=int(_merged(args, config, "n_jobs", 1)),
        n_units=None if n_units is None else int(n_units),
    )
    csv_path = out / f"{args.table}_comparison.csv"
    txt_path = out / f"{args.table}_report.txt"
    report = comparison.to_text_report()
    csv_path.write_text(comparison.to_csv_text(), encoding="utf-8")
    txt_path.write_text(report, encoding="utf-8")
    print(report)
    print(f"wrote {csv_path} and {txt_path}")
    return 0


def cmd_degree_stats(args: argparse.Namespace) -> int:
    allowed = {"n_units": _INTEGER, "radius": _NUMBER, "seed": _INTEGER, "nodes": _STRING,
               "edges": _STRING, "treat_p": _NUMBER, "calibrate_mean_degree": _NUMBER}
    config = _load_config(args.config, allowed)
    nodes_path = _merged(args, config, "nodes")
    edges_path = _merged(args, config, "edges")
    if (nodes_path is None) != (edges_path is None):
        raise UsageError("an ingested network needs both --nodes and --edges; "
                         f"{'--edges' if edges_path is None else '--nodes'} is missing")
    seed = int(_merged(args, config, "seed", 0))

    target = _merged(args, config, "calibrate_mean_degree")
    if target is not None:
        n_units = int(_merged(args, config, "n_units", 1000))
        radius = calibrate_radius(n_units, float(target), seed)
        print(json.dumps({"n_units": n_units, "target_mean_f": float(target),
                          "calibrated_radius": radius, "seed": seed}))
        return 0

    if nodes_path is not None and edges_path is not None:
        network = ingest_network(nodes_path, edges_path)
    else:
        n_units = int(_merged(args, config, "n_units", 1000))
        radius = float(_merged(args, config, "radius", DEFAULT_RADIUS))
        positions = generate_positions(n_units, seed)
        network = build_geometric_network(positions, radius)
    treatment = None
    treat_p = _merged(args, config, "treat_p")
    if treat_p is not None:
        treatment = assign_treatment(network.n, float(treat_p), seed)
    summary = degree_stats(network, treatment)
    print(json.dumps({
        "n": network.n,
        "edges": network.edge_count,
        "radius": network.radius,
        "seed": seed,
        "generator": GENERATOR_NAME,
        "summary": asdict(summary),
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcrf",
        description="Direct, spillover, and interaction effects of randomized "
                    "treatment on a network.",
    )
    parser.add_argument("--version", action="version", version=f"netcrf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a network plus outcome frame")
    p_sim.add_argument("--config")
    p_sim.add_argument("--n-units", type=int, dest="n_units")
    p_sim.add_argument("--radius", type=float)
    p_sim.add_argument("--scenario", choices=list(SCENARIO_IDS))
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out")
    p_sim.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override a DGP parameter (repeatable)")
    p_sim.add_argument("--write-network", action="store_true", dest="write_network",
                       default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit model specs to a frame or raw data")
    p_fit.add_argument("--config")
    p_fit.add_argument("--frame")
    p_fit.add_argument("--nodes")
    p_fit.add_argument("--edges")
    p_fit.add_argument("--model", action="append",
                       help="model spec string (repeatable), e.g. tr or crf2:J=2")
    p_fit.add_argument("--rank-policy", choices=["auto", "error", "drop"],
                       dest="rank_policy")
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=cmd_fit)

    p_rep = sub.add_parser("replicate", help="rerun a benchmark table comparison")
    p_rep.add_argument("table", choices=["table1", "table2"])
    p_rep.add_argument("--config")
    p_rep.add_argument("--reps", type=int)
    p_rep.add_argument("--seed", type=int)
    p_rep.add_argument("--n-jobs", type=int, dest="n_jobs")
    p_rep.add_argument("--n-units", type=int, dest="n_units",
                       help="override the study size (smoke tests only)")
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_replicate)

    p_deg = sub.add_parser("degree-stats", help="degree-distribution summary")
    p_deg.add_argument("--config")
    p_deg.add_argument("--n-units", type=int, dest="n_units")
    p_deg.add_argument("--radius", type=float)
    p_deg.add_argument("--seed", type=int)
    p_deg.add_argument("--nodes")
    p_deg.add_argument("--edges")
    p_deg.add_argument("--treat-p", type=float, dest="treat_p")
    p_deg.add_argument("--calibrate-mean-degree", type=float,
                       dest="calibrate_mean_degree")
    p_deg.set_defaults(func=cmd_degree_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
