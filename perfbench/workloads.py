"""The benchmark's workloads: how each op is made, and how its output is checked.

Each op runs one ``netcrf`` command in-process through ``netcrf.cli.main``
with fresh inputs derived from the workload seed; ``prepare`` makes them and
``check`` verifies the files the command wrote. Neither is timed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_fit_outputs, compare_cells, read_comparison, recompute_comparison
from inputs import friend_counts, make_network_data, write_network_csvs

ALL_LAYERS = ("cli", "montecarlo", "graph", "dgp", "design", "lsq", "effects")


@dataclass
class Op:
    seed: int
    argv: list
    dir: Path  # everything the op reads and writes lives here
    input_files: tuple = ()
    frames: dict = field(default_factory=dict)

    @property
    def out_dir(self) -> Path:
        return self.dir / "out"

    def bytes_read(self) -> int:
        return sum(p.stat().st_size for p in self.input_files)

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file())

    def discard(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


@dataclass(frozen=True)
class ReplicateWorkload:
    """``netcrf replicate <table>`` with a few replications per op."""

    name: str
    table: str
    n_units: int
    estimators: tuple
    scenarios: tuple
    reps: int = 2  # the smallest study replicate accepts (an SD needs two)
    radius: float = 0.025
    layers: tuple = ALL_LAYERS
    unit_name: str = "reps"

    @property
    def units_per_op(self) -> int:
        """Grid replications per op; each covers every scenario x estimator."""
        return self.reps

    def prepare(self, seed: int, work_dir: Path) -> Op:
        argv = ["replicate", self.table, "--reps", str(self.reps), "--seed", str(seed),
                "--n-jobs", "1", "--out", str(work_dir / "out")]
        return Op(seed=seed, argv=argv, dir=work_dir)

    def check(self, op: Op, recompute: bool) -> None:
        cells = read_comparison(op.out_dir / f"{self.table}_comparison.csv",
                                self.estimators, self.scenarios)
        if recompute:
            compare_cells(cells, recompute_comparison(op.seed, self.reps, self.n_units, self.radius,
                                                      self.estimators, self.scenarios))


@dataclass(frozen=True)
class FitWorkload:
    """``netcrf fit --nodes --edges`` with every estimator kind, on a fresh network per op."""

    name: str
    models: tuple
    # montecarlo is not on this path; every other layer is
    layers: tuple = tuple(layer for layer in ALL_LAYERS if layer != "montecarlo")
    unit_name: str = "fits"

    @property
    def units_per_op(self) -> int:
        return len(self.models)

    def prepare(self, seed: int, work_dir: Path) -> Op:
        data = make_network_data(seed)
        nodes, edges = write_network_csvs(data, work_dir / "in")
        argv = ["fit", "--nodes", str(nodes), "--edges", str(edges),
                "--out", str(work_dir / "out")]
        for model in self.models:
            argv += ["--model", model]
        f, t = friend_counts(data.edges, data.d)
        keep = f > 0  # the program analyses units with friends only
        rows = (data.y[keep], data.d[keep], t[keep], f[keep])
        frames = {}
        for model in self.models:
            if model.startswith("crf1short:f="):
                sub = rows[3] == int(model.split("=", 1)[1])
                frames[model] = tuple(col[sub] for col in rows)
            else:
                frames[model] = rows
        return Op(seed=seed, argv=argv, dir=work_dir, input_files=(nodes, edges), frames=frames)

    def check(self, op: Op, recompute: bool) -> None:
        check_fit_outputs(op.out_dir, self.models, op.frames)


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        ReplicateWorkload(name="mc_table1", table="table1", n_units=2000,
                          estimators=("t", "r", "tr", "crf2:J=2"),
                          scenarios=("i", "ii", "iii", "iv")),
        ReplicateWorkload(name="mc_table2", table="table2", n_units=5000,
                          estimators=("tr", "crf2:J=2"), scenarios=("iii", "iv")),
        FitWorkload(name="fit_ingest",
                    models=("t", "r", "tr", "crf2:J=2,t_order=2", "crf1long", "crf1short:f=4")),
    )
}
