"""Monte Carlo harness: bias and SD of the estimators over repeated designs.

Each replication draws a fresh geometric network, simulates a frame, fits
every requested estimator, and recovers the three aggregate effects. Bias
is measured against the per-replication realized true effects (averaged
across replications), since the true effects depend on the realized
friend-count distribution. Replications derive independent Philox streams
from (master_seed, replication index), so results are bit-identical across
runs and across worker counts.

Scenarios share each replication's draws (the streams ignore the scenario),
so only the outcome ``y`` differs between them. One replication loop serves
every scenario of a grid: it builds the network and draws the frames once
(``simulate_frames``); then, per estimator and distinct ``p_treat`` (which
fixes d, t and f), one design, one ``lsq.fit`` of the stacked scenario
outcomes and one ``recover_effect_table`` call give every scenario's
aggregates. ``run_study`` and ``run_replication`` are its one-scenario case.

``replicate_table`` reruns the benchmark study grids and compares the
reproduced bias/SD values against reference values shipped with the package
(``data/reference_tables.json``), flagging each cell against the default
tolerances: |bias difference| <= max(0.03, 3 x MC standard error) and
relative SD difference <= 30%, both widened by sqrt(1000 / repetitions)
when fewer than 1000 repetitions are run.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from itertools import repeat

import numpy as np

from . import __version__
from .design import ModelKind, ModelSpec, build_design, format_model_spec, parse_model_spec
from .dgp import DgpParams, TrueEffects, dgp_scenario, simulate_frames, true_aggregate_effects
from .effects import recover_effect_table
from .errors import DataError, NumericalError
from .graph import DEFAULT_RADIUS, build_geometric_network, generate_positions
from .lsq import fit as lsq_fit
from .rng import GENERATOR_NAME, child_seeds

TARGETS = ("direct", "network", "interaction")


@dataclass(frozen=True)
class MCConfig:
    """Study configuration; ``scenario`` is a preset id or explicit parameters."""

    n_units: int
    scenario: str | DgpParams
    estimators: tuple[ModelSpec, ...]
    repetitions: int
    master_seed: int
    radius: float = DEFAULT_RADIUS
    keep_estimates: bool = False
    n_jobs: int = 1

    def __post_init__(self):
        if self.n_units < 2:
            raise ValueError("n_units must be >= 2")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if any(spec.kind == ModelKind.CRF1_SHORT for spec in self.estimators):
            raise ValueError("crf1short fits one F subsample; the study averages over every F")

    def params(self) -> DgpParams:
        if isinstance(self.scenario, DgpParams):
            return self.scenario
        return dgp_scenario(self.scenario)

    def scenario_label(self) -> str:
        return self.scenario if isinstance(self.scenario, str) else "custom"


@dataclass(frozen=True)
class ReplicationResult:
    rep_index: int
    true: TrueEffects
    estimates: dict
    failures: dict


def run_replication(config: MCConfig, rep_index: int) -> ReplicationResult:
    """One simulate-fit-recover pass, seeded from (master_seed, rep_index)."""
    if not 0 <= rep_index < config.repetitions:
        raise ValueError(f"rep_index must be in [0, {config.repetitions}), got {rep_index}")
    return _replicate(config, (config.params(),), rep_index)[0]


def _replicate(config: MCConfig, scenarios, rep_index: int) -> tuple[ReplicationResult, ...]:
    """One replication of every scenario in ``scenarios`` (a sequence of DgpParams)."""
    seed_positions, seed_frame = child_seeds(config.master_seed, rep_index, 2)
    positions = generate_positions(config.n_units, seed_positions)
    network = build_geometric_network(positions, config.radius)
    frames = simulate_frames(network, scenarios, seed_frame)
    if frames[0].n_selected == 0:
        raise DataError(
            f"replication {rep_index}: no units with F > 0 "
            f"(n_units={config.n_units}, radius={config.radius})"
        )
    results = tuple(ReplicationResult(rep_index, true_aggregate_effects(params, frame.f), {}, {})
                    for params, frame in zip(scenarios, frames))
    groups: dict[float, list[int]] = {}  # p_treat -> scenario positions sharing (d, t, f)
    for pos, params in enumerate(scenarios):
        groups.setdefault(params.p_treat, []).append(pos)
    for group in groups.values():
        frame = frames[group[0]]
        y = np.column_stack([frames[pos].y for pos in group])
        for spec in config.estimators:
            key = format_model_spec(spec)
            policy = "drop" if spec.saturated else "error"
            try:
                result = lsq_fit(build_design(frame, spec), y, on_rank_deficiency=policy)
                aggregates = recover_effect_table(result, spec, frame.f, t_grid=()).aggregates
            except (NumericalError, DataError, ValueError) as exc:
                for pos in group:
                    results[pos].failures[key] = f"{type(exc).__name__}: {exc}"
                continue
            for pos, agg in zip(group, aggregates):
                if agg.direct is None or agg.network is None or agg.interaction is None:
                    results[pos].failures[key] = "aggregate effects unavailable (all cells absent)"
                else:
                    results[pos].estimates[key] = (float(agg.direct), float(agg.network),
                                                   float(agg.interaction))
    return results


def _csv_text(metadata: dict, row_type: type, records) -> str:
    """A ``# {json}`` metadata line, then a CSV table with one column per field
    of the dataclass ``row_type`` and one row per record. Floats keep 17
    significant digits, None is an empty field, and a field holding a comma
    is quoted."""
    names = [f.name for f in fields(row_type)]
    out = io.StringIO()
    out.write("# " + json.dumps(metadata) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for record in records:
        values = [getattr(record, name) for name in names]
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in values])
    return out.getvalue()


@dataclass(frozen=True)
class MCRow:
    """Aggregated bias/SD for one (estimator, target)."""

    estimator: str
    target: str
    abs_bias: float | None
    sd: float | None
    true_value: float
    mean_estimate: float | None
    n_ok: int
    n_failed: int


@dataclass(frozen=True)
class MCReport:
    config: MCConfig
    rows: tuple[MCRow, ...]
    metadata: dict
    estimates: dict = field(default_factory=dict)

    def row(self, estimator: str, target: str) -> MCRow:
        for r in self.rows:
            if r.estimator == estimator and r.target == target:
                return r
        raise KeyError(f"no row for ({estimator}, {target})")

    def to_csv_text(self) -> str:
        return _csv_text(self.metadata, MCRow, self.rows)

    def to_text_table(self) -> str:
        header = f"{'estimator':<16}{'target':<13}{'|bias|':>10}{'SD':>10}{'true':>10}{'ok':>6}{'fail':>6}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            bias = "n/a" if r.abs_bias is None else f"{r.abs_bias:.3f}"
            sd = "n/a" if r.sd is None else f"{r.sd:.3f}"
            lines.append(
                f"{r.estimator:<16}{r.target:<13}{bias:>10}{sd:>10}{r.true_value:>10.3f}"
                f"{r.n_ok:>6}{r.n_failed:>6}"
            )
        return "\n".join(lines)


def run_study(config: MCConfig) -> MCReport:
    """Run all replications and aggregate per (estimator, target).

    Aggregation is keyed by replication index, so the report does not depend
    on worker scheduling. Replications where an estimator failed are excluded
    from that estimator's aggregate and counted in ``n_failed``.
    """
    return _run_scenarios(config, (config.scenario,))[0]


def _run_scenarios(config: MCConfig, scenarios) -> list[MCReport]:
    """One report per scenario; ``config`` supplies everything but the scenario."""
    configs = [replace(config, scenario=scenario) for scenario in scenarios]
    params = tuple(c.params() for c in configs)
    indices = range(config.repetitions)
    if config.n_jobs > 1 and config.repetitions > 1:
        with ProcessPoolExecutor(max_workers=config.n_jobs) as pool:
            per_rep = list(pool.map(_replicate, repeat(config), repeat(params), indices,
                                    chunksize=16))
    else:
        per_rep = [_replicate(config, params, i) for i in indices]
    return [_report(c, [rep[pos] for rep in per_rep]) for pos, c in enumerate(configs)]


def _report(config: MCConfig, results: list[ReplicationResult]) -> MCReport:
    # one row per target, one column per replication: reducing a C-contiguous
    # row sums it pairwise, bit for bit as np.mean of that target's list did
    # (``take`` keeps the rows contiguous, where ``truths[:, ok]`` would not)
    truths = np.array([[getattr(r.true, target) for r in results] for target in TARGETS])
    true_all = truths.mean(axis=1)
    rows = []
    estimate_store: dict[str, np.ndarray] = {}
    for spec in config.estimators:
        key = format_model_spec(spec)
        ok = [rep for rep, r in enumerate(results) if key in r.estimates]
        n_failed = config.repetitions - len(ok)
        abs_bias = sd = mean_estimate = [None] * len(TARGETS)
        true_ok = true_all
        if ok:
            values = np.array([[results[rep].estimates[key][pos] for rep in ok]
                               for pos in range(len(TARGETS))])
            if len(ok) < len(results):
                true_ok = truths.take(ok, axis=1).mean(axis=1)
            mean_estimate = values.mean(axis=1)
            abs_bias = np.abs(mean_estimate - true_ok)
            if len(ok) > 1:
                sd = values.std(axis=1, ddof=1)
            if config.keep_estimates:
                for pos, target in enumerate(TARGETS):
                    estimate_store[f"{key}/{target}"] = values[pos]
        for pos, target in enumerate(TARGETS):
            rows.append(MCRow(
                estimator=key, target=target, abs_bias=_optional_float(abs_bias[pos]), sd=_optional_float(sd[pos]),
                true_value=float(true_ok[pos]), mean_estimate=_optional_float(mean_estimate[pos]),
                n_ok=len(ok), n_failed=n_failed,
            ))

    metadata = {
        "package_version": __version__,
        "generator": GENERATOR_NAME,
        "master_seed": config.master_seed,
        "n_units": config.n_units,
        "radius": config.radius,
        "scenario": config.scenario_label(),
        "params": asdict(config.params()),
        "estimators": [format_model_spec(s) for s in config.estimators],
        "repetitions": config.repetitions,
    }
    return MCReport(config=config, rows=tuple(rows), metadata=metadata, estimates=estimate_store)


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


def load_reference_tables() -> dict:
    """Reference bias/SD benchmark values shipped with the package."""
    path = resources.files("netcrf").joinpath("data/reference_tables.json")
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class ComparisonCell:
    estimator: str
    scenario: str
    target: str
    bias: float | None
    bias_ref: float
    bias_tol: float
    bias_pass: bool
    sd: float | None
    sd_ref: float | None
    sd_tol: float | None
    sd_pass: bool | None
    true_value: float | None
    true_ref: float


@dataclass(frozen=True)
class TableComparison:
    table_id: str
    cells: tuple[ComparisonCell, ...]
    metadata: dict

    def cell(self, estimator: str, scenario: str, target: str) -> ComparisonCell:
        for c in self.cells:
            if (c.estimator, c.scenario, c.target) == (estimator, scenario, target):
                return c
        raise KeyError(f"no cell for ({estimator}, {scenario}, {target})")

    def to_csv_text(self) -> str:
        return _csv_text(self.metadata, ComparisonCell, self.cells)

    def to_text_report(self) -> str:
        lines = [
            f"Replication comparison: {self.table_id}",
            f"config: {json.dumps(self.metadata)}",
            "",
            f"{'estimator':<12}{'scen':<6}{'target':<13}{'|bias|':>8}{'ref':>7}"
            f"{'tol':>7}{'ok':>4}  {'SD':>7}{'ref':>7}{'ok':>4}",
        ]
        lines.append("-" * len(lines[-1]))
        for c in self.cells:
            bias = "n/a" if c.bias is None else f"{c.bias:.3f}"
            sd = "n/a" if c.sd is None else f"{c.sd:.3f}"
            sd_ref = "  ..." if c.sd_ref is None else f"{c.sd_ref:.3f}"
            sd_ok = " -" if c.sd_pass is None else (" +" if c.sd_pass else " x")
            lines.append(
                f"{c.estimator:<12}{c.scenario:<6}{c.target:<13}{bias:>8}{c.bias_ref:>7.3f}"
                f"{c.bias_tol:>7.3f}{'+' if c.bias_pass else 'x':>4}  {sd:>7}{sd_ref:>7}{sd_ok:>4}"
            )
        n_bias_fail = sum(not c.bias_pass for c in self.cells)
        n_sd_fail = sum(c.sd_pass is False for c in self.cells)
        lines.append("")
        lines.append(f"bias cells failing: {n_bias_fail} / {len(self.cells)}")
        lines.append(f"SD cells failing:   {n_sd_fail} / {sum(c.sd_pass is not None for c in self.cells)}")
        return "\n".join(lines) + "\n"


def replicate_table(
    table_id: str,
    repetitions: int | None = None,
    master_seed: int = 1234,
    n_jobs: int = 1,
    n_units: int | None = None,
) -> TableComparison:
    """Rerun a benchmark study grid and compare against the shipped reference values.

    ``repetitions`` below the reference count widens the pass tolerances by
    sqrt(reference / actual); ``n_units`` exists for smoke tests only and is
    echoed in the metadata when overridden.
    """
    reference = load_reference_tables()
    if table_id not in reference:
        raise ValueError(f"unknown table id {table_id!r}; expected one of {sorted(reference)}")
    table = reference[table_id]
    reps = table["repetitions"] if repetitions is None else int(repetitions)
    if reps < 2:
        raise ValueError("repetitions must be >= 2 for an SD comparison")
    units = table["n_units"] if n_units is None else int(n_units)
    scale = max(1.0, float(np.sqrt(table["repetitions"] / reps)))
    estimators = tuple(parse_model_spec(s) for s in table["estimators"])

    config = MCConfig(
        n_units=units,
        scenario=table["scenarios"][0],
        estimators=estimators,
        repetitions=reps,
        master_seed=master_seed,
        radius=table["radius"],
        n_jobs=n_jobs,
    )
    reports = _run_scenarios(config, table["scenarios"])
    cells = []
    true_means: dict[str, dict[str, float]] = {}
    for scenario, report in zip(table["scenarios"], reports):
        true_means[scenario] = {
            target: report.row(table["estimators"][0], target).true_value for target in TARGETS
        }
        for est_key in table["estimators"]:
            for target in TARGETS:
                row = report.row(est_key, target)
                bias_ref, sd_ref = table["cells"][est_key][scenario][target]
                mcse = None if row.sd is None or row.n_ok == 0 else row.sd / np.sqrt(row.n_ok)
                bias_tol = max(0.03 * scale, 0.0 if mcse is None else 3.0 * mcse)
                bias_pass = row.abs_bias is not None and abs(row.abs_bias - bias_ref) <= bias_tol
                if sd_ref is None:
                    sd_tol = None
                    sd_pass = None
                else:
                    sd_tol = 0.30 * scale
                    sd_pass = row.sd is not None and abs(row.sd - sd_ref) <= sd_tol * sd_ref
                cells.append(ComparisonCell(
                    estimator=est_key, scenario=scenario, target=target,
                    bias=row.abs_bias, bias_ref=float(bias_ref), bias_tol=float(bias_tol),
                    bias_pass=bool(bias_pass),
                    sd=row.sd, sd_ref=sd_ref, sd_tol=sd_tol, sd_pass=sd_pass,
                    true_value=row.true_value, true_ref=float(table["true_effects"][scenario][target]),
                ))

    metadata = {
        "table_id": table_id,
        "n_units": units,
        "repetitions": reps,
        "master_seed": master_seed,
        "generator": GENERATOR_NAME,
        "tolerance_scale": scale,
        "true_effects_reproduced": true_means,
        "n_units_overridden": n_units is not None,
    }
    return TableComparison(table_id=table_id, cells=tuple(cells), metadata=metadata)
