"""Monte Carlo harness: bias and SD of the estimators over repeated designs.

Each replication draws a fresh geometric network, simulates a frame, fits
every requested estimator, and recovers the three aggregate effects. Bias
is measured against the per-replication realized true effects (averaged
across replications), since the true effects depend on the realized
friend-count distribution. Replications derive independent Philox streams
from (master_seed, replication index), so results are bit-identical across
runs and across worker counts.

Scenarios share each replication's draws (the streams ignore the scenario),
so only the outcome differs between them. One replication loop serves
every scenario of a grid, and it works on the frame's ~100 occupied
(d, t, f) cells, never on its units' outcomes: it builds the network and
draws the frame by cell (``simulate_cells``, which needs the scenarios to
share ``p_treat``, since that fixes d and t), whose per-cell sums of ``y``,
one column per scenario, are ``n_c mu_cs + sigma_s Z_c``. Then, per
estimator, one design, one ``lsq.fit`` of those sums and one
``recover_effect_table`` call without a table give every scenario's
aggregates. ``run_study`` is its one-scenario case. A non-finite outcome
fails the whole run before any fit; an estimator that raises
:class:`NumericalError` or :class:`DataError` counts as failed in that
replication, and any other exception fails the run.

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
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from itertools import repeat
from operator import attrgetter

import numpy as np

from . import __version__
from .design import ModelKind, ModelSpec, build_design, format_model_spec, parse_model_spec
from .dgp import DgpParams, dgp_scenario, simulate_cells, true_aggregate_effects
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


def _replicate(config: MCConfig, scenarios, rep_index: int):
    """One replication of every scenario in ``scenarios``, DgpParams that share
    ``p_treat``: the true effects (scenario x target), every estimator's
    estimates (scenario x estimator x target) and whether the estimator gave
    them (scenario x estimator; where not, its estimates are zeros)."""
    seed_positions, seed_frame = child_seeds(config.master_seed, rep_index, 2)
    positions = generate_positions(config.n_units, seed_positions)
    network = build_geometric_network(positions, config.radius)
    draw = simulate_cells(network, scenarios, seed_frame)
    if draw.n_selected == 0:
        raise DataError(
            f"replication {rep_index}: no units with F > 0 "
            f"(n_units={config.n_units}, radius={config.radius})"
        )
    sums = draw.cell_sums()
    true = np.empty((len(scenarios), len(TARGETS)))
    for s, params in enumerate(scenarios):
        effects = true_aggregate_effects(params, draw.f)
        true[s] = effects.direct, effects.network, effects.interaction
    estimates = np.zeros((len(scenarios), len(config.estimators), len(TARGETS)))
    ok = np.zeros(estimates.shape[:2], dtype=bool)
    for e, spec in enumerate(config.estimators):
        policy = "drop" if spec.saturated else "error"
        try:
            result = lsq_fit(build_design(draw, spec), sums, on_rank_deficiency=policy)
            aggregates = recover_effect_table(result, t_grid=()).aggregates
        except (NumericalError, DataError):
            continue
        for s, agg in enumerate(aggregates):
            # an aggregate is None when every cell it needs is absent
            if agg.direct is not None and agg.network is not None and agg.interaction is not None:
                estimates[s, e] = agg.direct, agg.network, agg.interaction
                ok[s, e] = True
    return true, estimates, ok


def _csv_text(metadata: dict, row_type: type, records) -> str:
    """A ``# {json}`` metadata line, then a CSV table with one column per field
    of the dataclass ``row_type`` and one row per record. Floats keep 17
    significant digits, None is an empty field, and a field holding a comma
    is quoted."""
    names = [f.name for f in fields(row_type)]
    values = attrgetter(*names)
    out = io.StringIO()
    out.write("# " + json.dumps(metadata) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in values(record)]
                     for record in records)
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
    summary = _run_scenarios(config, (config.scenario,))
    keys = [format_model_spec(spec) for spec in config.estimators]
    # the rows in (estimator, target) order, that of the flattened statistics
    n_ok = np.repeat(summary.n_ok[0], len(TARGETS))
    rows = tuple(map(
        MCRow, [key for key in keys for _ in TARGETS], TARGETS * len(keys),
        _where_defined(summary.abs_bias[0].ravel(), n_ok > 0),
        _where_defined(summary.sd[0].ravel(), n_ok > 1),
        summary.true_value[0].ravel().tolist(),
        _where_defined(summary.mean_estimate[0].ravel(), n_ok > 0),
        n_ok.tolist(), (config.repetitions - n_ok).tolist(),
    ))
    metadata = {
        "package_version": __version__,
        "generator": GENERATOR_NAME,
        "master_seed": config.master_seed,
        "n_units": config.n_units,
        "radius": config.radius,
        "scenario": config.scenario_label(),
        "params": asdict(config.params()),
        "estimators": keys,
        "repetitions": config.repetitions,
    }
    return MCReport(config=config, rows=rows, metadata=metadata)


@dataclass(frozen=True)
class _Summary:
    """A study's statistics per (scenario, estimator, target), over the
    replications where the estimator succeeded, of which ``n_ok`` (scenario
    x estimator) counts. Means and ``abs_bias`` are NaN where ``n_ok`` is 0,
    and ``sd`` where it is below 2."""

    n_ok: np.ndarray
    true_value: np.ndarray
    mean_estimate: np.ndarray
    abs_bias: np.ndarray
    sd: np.ndarray


def _run_scenarios(config: MCConfig, scenarios) -> _Summary:
    """The statistics of every scenario; ``config`` supplies everything but the scenario."""
    params = tuple(replace(config, scenario=scenario).params() for scenario in scenarios)
    indices = range(config.repetitions)
    if config.n_jobs > 1 and config.repetitions > 1:
        # imported here: the pool's modules cost a one-worker run ~20 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.n_jobs) as pool:
            per_rep = list(pool.map(_replicate, repeat(config), repeat(params), indices,
                                    chunksize=16))
    else:
        per_rep = [_replicate(config, params, i) for i in indices]
    # the replications go on the last axis, so that each row of one
    # (scenario, estimator, target) is C-contiguous
    true, estimates, ok = (np.stack(part, axis=-1) for part in zip(*per_rep))
    return _summarize(true, estimates, ok)


def _summarize(true: np.ndarray, estimates: np.ndarray, ok: np.ndarray) -> _Summary:
    """Reduce the true effects (scenario x target x replication) and the
    estimates (scenario x estimator x target x replication) where ``ok``
    (scenario x estimator x replication) holds.

    Reducing a C-contiguous row along the last axis sums it pairwise, so
    every mean and SD has the bits ``np.mean`` and ``np.std(ddof=1)`` give
    for that row's replications as one array (``take`` keeps a row of the
    successful replications contiguous, where a boolean index would not).
    """
    n_ok = ok.sum(axis=-1)
    reps = ok.shape[-1]
    true_value = np.repeat(true.mean(axis=-1)[:, None], estimates.shape[1], axis=1)
    mean_estimate = estimates.mean(axis=-1)
    sd = estimates.std(axis=-1, ddof=1) if reps > 1 else np.full(mean_estimate.shape, np.nan)
    for s, e in np.argwhere((n_ok > 0) & (n_ok < reps)):
        kept = np.flatnonzero(ok[s, e])
        values = estimates[s, e].take(kept, axis=-1)
        true_value[s, e] = true[s].take(kept, axis=-1).mean(axis=-1)
        mean_estimate[s, e] = values.mean(axis=-1)
        sd[s, e] = values.std(axis=-1, ddof=1) if kept.size > 1 else np.nan
    mean_estimate[n_ok == 0] = np.nan
    sd[n_ok < 2] = np.nan
    return _Summary(n_ok=n_ok, true_value=true_value, mean_estimate=mean_estimate,
                    abs_bias=np.abs(mean_estimate - true_value), sd=sd)


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
    scenarios, keys = table["scenarios"], table["estimators"]

    config = MCConfig(
        n_units=units,
        scenario=scenarios[0],
        estimators=tuple(parse_model_spec(s) for s in keys),
        repetitions=reps,
        master_seed=master_seed,
        radius=table["radius"],
        n_jobs=n_jobs,
    )
    summary = _run_scenarios(config, scenarios)
    # the cells in (scenario, estimator, target) order, that of the flattened statistics
    grid = [(scenario, key, target) for scenario in scenarios for key in keys for target in TARGETS]
    bias, sd, true_value = (a.ravel() for a in (summary.abs_bias, summary.sd, summary.true_value))
    n_ok = np.repeat(summary.n_ok.ravel(), len(TARGETS))
    bias_ref, sd_ref = zip(*(table["cells"][key][scenario][target] for scenario, key, target in grid))
    bias_ref = np.array(bias_ref, dtype=float)
    # an SD, and so its MC standard error, is NaN where undefined; NaN fails every comparison
    three_mcse = 3.0 * (sd / np.sqrt(n_ok))
    bias_tol = np.where(three_mcse > 0.03 * scale, three_mcse, 0.03 * scale)
    bias_pass = np.abs(bias - bias_ref) <= bias_tol
    sd_tol = 0.30 * scale
    sd_ref_values = np.array([np.nan if value is None else value for value in sd_ref], dtype=float)
    sd_pass = np.abs(sd - sd_ref_values) <= sd_tol * sd_ref_values
    scenario_column, key_column, target_column = zip(*grid)
    cells = tuple(map(
        ComparisonCell, key_column, scenario_column, target_column,
        _where_defined(bias, n_ok > 0), bias_ref.tolist(), bias_tol.tolist(), bias_pass.tolist(),
        _where_defined(sd, n_ok > 1), sd_ref, [None if ref is None else sd_tol for ref in sd_ref],
        [None if ref is None else ok for ref, ok in zip(sd_ref, sd_pass.tolist())],
        true_value.tolist(),
        [float(table["true_effects"][scenario][target]) for scenario, _, target in grid],
    ))
    # the true effects as averaged over the first estimator's replications
    true_reproduced = summary.true_value[:, 0].tolist()
    metadata = {
        "table_id": table_id,
        "n_units": units,
        "repetitions": reps,
        "master_seed": master_seed,
        "generator": GENERATOR_NAME,
        "tolerance_scale": scale,
        "true_effects_reproduced": {scenario: dict(zip(TARGETS, values))
                                    for scenario, values in zip(scenarios, true_reproduced)},
        "n_units_overridden": n_units is not None,
    }
    return TableComparison(table_id=table_id, cells=cells, metadata=metadata)


def _where_defined(values: np.ndarray, defined: np.ndarray) -> list:
    """``values`` as a list of floats, None where ``defined`` is False."""
    return [v if ok else None for v, ok in zip(values.tolist(), defined.tolist())]
