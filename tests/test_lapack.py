"""netcrf reaches LAPACK through ``netcrf._lapack`` without importing the
``scipy.linalg`` package, and a default run never imports the process pool.
Each test starts a fresh interpreter, because this one has imported both."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import netcrf
from netcrf import build_design, build_geometric_network, generate_positions, parse_model_spec
from netcrf.cli import _load_real_data

# the six specs of the benchmark's fit_ingest workload, and one whose
# design has all-zero columns, the columns of empty cells, on these data
MODELS = ("t", "r", "tr", "crf2:J=2,t_order=2", "crf1long", "crf1short:f=4", "crf1short:f=8")


def write_network(directory: Path, n: int = 600, seed: int = 3) -> tuple[Path, Path]:
    """nodes.csv and edges.csv of a geometric network with random outcomes and
    treatments; its mean degree is about that of the paper's N=2000 network."""
    network = build_geometric_network(generate_positions(n, seed), 0.025 * (2000 / n) ** 0.5)
    rng = np.random.default_rng(seed)
    d, y = rng.integers(0, 2, n), rng.standard_normal(n)
    nodes, edges = directory / "nodes.csv", directory / "edges.csv"
    nodes.write_text("id,y,d\n" + "".join(f"{i},{y[i]:.17g},{d[i]}\n" for i in range(n)))
    edges.write_text("src,dst\n" + "".join(f"{i},{j}\n" for i, j in network.edges))
    return nodes, edges


def run_fresh(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter that imports netcrf from where
    this one does; the lines of its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(netcrf.__file__).parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def fit_argv(nodes, edges, out):
    argv = ["fit", "--nodes", str(nodes), "--edges", str(edges), "--out", str(out)]
    for model in MODELS:
        argv += ["--model", model]
    return argv


def test_fit_data_reach_a_column_of_an_empty_cell(tmp_path):
    frame = _load_real_data(*map(str, write_network(tmp_path))).restrict_to_f(8)
    design = build_design(frame, parse_model_spec("crf1short:f=8"))
    assert frame.n_selected > 0
    all_zero = ~design.cell_values.any(axis=0)
    assert all_zero.any() and (design.own_cell[all_zero] < 0).all()


def test_fit_and_replicate_import_neither_scipy_linalg_nor_the_process_pool(tmp_path):
    nodes, edges = write_network(tmp_path)
    lines = run_fresh(f"""
        import json, sys
        from netcrf.cli import main
        assert main({fit_argv(nodes, edges, tmp_path / "fit")!r}) == 0
        assert main(["replicate", "table1", "--reps", "2", "--n-units", "300",
                     "--n-jobs", "1", "--out", {str(tmp_path / "rep")!r}]) == 0
        print(json.dumps([name for name in ("scipy.linalg", "concurrent.futures.process")
                          if name in sys.modules]))
    """)
    assert json.loads(lines[-1]) == []


def test_importing_scipy_linalg_later_changes_no_bit(tmp_path):
    nodes, edges = write_network(tmp_path)
    run_fresh(f"""
        import sys
        from netcrf import _lapack
        from netcrf.cli import main
        assert main({fit_argv(nodes, edges, tmp_path / "before")!r}) == 0
        assert "scipy.linalg" not in sys.modules
        import scipy.linalg
        import scipy.linalg.lapack
        assert scipy.linalg.lapack.dtrtri is _lapack.dtrtri
        assert main({fit_argv(nodes, edges, tmp_path / "after")!r}) == 0
    """)
    before = sorted((tmp_path / "before").iterdir())
    assert len(before) == 2 * len(MODELS)
    for path in before:
        assert path.read_bytes() == (tmp_path / "after" / path.name).read_bytes(), path.name
