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
every scenario of a grid: it builds the network once, each estimator's design
and QR factorization once per distinct (d, t, f) frame (equal for the presets,
checked for custom parameters), and fits every scenario's ``y`` against it.
``run_study`` and ``run_replication`` are its one-scenario case.

``replicate_table`` reruns the benchmark study grids and compares the
reproduced bias/SD values against reference values shipped with the package
(``data/reference_tables.json``), flagging each cell against the default
tolerances: |bias difference| <= max(0.03, 3 x MC standard error) and
relative SD difference <= 30%, both widened by sqrt(1000 / repetitions)
when fewer than 1000 repetitions are run.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from itertools import repeat

import numpy as np

from . import __version__
from .design import ModelKind, ModelSpec, build_design, format_model_spec, parse_model_spec
from .dgp import DgpParams, TrueEffects, dgp_scenario, simulate_frame, true_aggregate_effects
from .effects import recover_effect_table
from .errors import DataError, NumericalError
from .graph import DEFAULT_RADIUS, build_geometric_network, generate_positions
from .lsq import fit as lsq_fit
from .rng import GENERATOR_NAME, child_seeds

TARGETS = ("direct", "network", "interaction")

# saturated dummy designs may legitimately contain empty cells; linear models
# must never be silently altered
_DROP_KINDS = (ModelKind.CRF1_LONG, ModelKind.CRF1_SHORT)


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


def _same_units(a, b) -> bool:
    """Whether two frames have equal (d, t, f) columns, and so equal designs."""
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in ("d", "t", "f"))


def _replicate(config: MCConfig, scenarios, rep_index: int) -> tuple[ReplicationResult, ...]:
    """One replication of every scenario in ``scenarios`` (a sequence of DgpParams)."""
    seed_positions, seed_frame = child_seeds(config.master_seed, rep_index, 2)
    positions = generate_positions(config.n_units, seed_positions)
    network = build_geometric_network(positions, config.radius)
    groups: list[tuple] = []  # (frame, spec -> design), one per distinct (d, t, f)
    results = []
    for params in scenarios:
        frame = simulate_frame(network, params, seed_frame)
        if frame.n_selected == 0:
            raise DataError(
                f"replication {rep_index}: no units with F > 0 "
                f"(n_units={config.n_units}, radius={config.radius})"
            )
        true = true_aggregate_effects(params, frame.f)
        designs = next((built for other, built in groups if _same_units(other, frame)), None)
        if designs is None:
            designs = {}
            groups.append((frame, designs))

        estimates: dict[str, tuple[float, float, float]] = {}
        failures: dict[str, str] = {}
        for spec in config.estimators:
            key = format_model_spec(spec)
            policy = "drop" if spec.kind in _DROP_KINDS else "error"
            try:
                if spec not in designs:
                    designs[spec] = build_design(frame, spec)
                result = lsq_fit(designs[spec], frame.y, on_rank_deficiency=policy)
                agg = recover_effect_table(result, spec, frame.f, t_grid=()).aggregates
            except (NumericalError, DataError, ValueError) as exc:
                failures[key] = f"{type(exc).__name__}: {exc}"
                continue
            if agg.direct is None or agg.network is None or agg.interaction is None:
                failures[key] = "aggregate effects unavailable (all cells absent)"
                continue
            estimates[key] = (float(agg.direct), float(agg.network), float(agg.interaction))
        results.append(ReplicationResult(rep_index=rep_index, true=true,
                                         estimates=estimates, failures=failures))
    return tuple(results)


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
        lines = ["# " + json.dumps(self.metadata)]
        lines.append("estimator,target,abs_bias,sd,true_value,mean_estimate,n_ok,n_failed")
        for r in self.rows:
            lines.append(",".join([
                r.estimator,
                r.target,
                "" if r.abs_bias is None else format(r.abs_bias, ".17g"),
                "" if r.sd is None else format(r.sd, ".17g"),
                format(r.true_value, ".17g"),
                "" if r.mean_estimate is None else format(r.mean_estimate, ".17g"),
                str(r.n_ok),
                str(r.n_failed),
            ]))
        return "\n".join(lines) + "\n"

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
    rows = []
    estimate_store: dict[str, np.ndarray] = {}
    for spec in config.estimators:
        key = format_model_spec(spec)
        ok = [r for r in results if key in r.estimates]
        n_failed = config.repetitions - len(ok)
        for pos, target in enumerate(TARGETS):
            true_all = float(np.mean([getattr(r.true, target) for r in results]))
            if ok:
                values = np.array([r.estimates[key][pos] for r in ok])
                true_ok = float(np.mean([getattr(r.true, target) for r in ok]))
                abs_bias = float(abs(values.mean() - true_ok))
                sd = float(values.std(ddof=1)) if values.size > 1 else None
                mean_estimate = float(values.mean())
                if config.keep_estimates:
                    estimate_store[f"{key}/{target}"] = values
            else:
                abs_bias = sd = mean_estimate = None
                true_ok = true_all
            rows.append(MCRow(
                estimator=key, target=target, abs_bias=abs_bias, sd=sd,
                true_value=true_ok, mean_estimate=mean_estimate,
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

    @property
    def all_bias_pass(self) -> bool:
        return all(c.bias_pass for c in self.cells)

    @property
    def all_sd_pass(self) -> bool:
        return all(c.sd_pass for c in self.cells if c.sd_pass is not None)

    def to_csv_text(self) -> str:
        lines = ["# " + json.dumps(self.metadata)]
        lines.append(
            "estimator,scenario,target,bias,bias_ref,bias_tol,bias_pass,"
            "sd,sd_ref,sd_tol,sd_pass,true_value,true_ref"
        )
        for c in self.cells:
            def fmt(v):
                return "" if v is None else (format(v, ".17g") if isinstance(v, float) else str(v))
            lines.append(",".join([
                c.estimator, c.scenario, c.target,
                fmt(c.bias), fmt(c.bias_ref), fmt(c.bias_tol), str(c.bias_pass),
                fmt(c.sd), fmt(c.sd_ref), fmt(c.sd_tol),
                "" if c.sd_pass is None else str(c.sd_pass),
                fmt(c.true_value), fmt(c.true_ref),
            ]))
        return "\n".join(lines) + "\n"

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
