"""netcrf benchmark: Monte Carlo study throughput and single-dataset fit latency.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_table1 --seed 1 --seconds 20 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json):
  mc_table1   netcrf replicate table1, 2 replications per op (N=2000, 4x4 grid)
  mc_table2   netcrf replicate table2, 2 replications per op (N=5000, 2x2 grid)
  fit_ingest  netcrf fit --nodes --edges with six specs, a fresh network per op

Every op runs in-process through ``netcrf.cli.main`` with ``--n-jobs 1``, in
a closed loop with one client, on inputs derived from ``--seed``; its output
is checked outside the timed region, and a failed check, a raised exception
or a non-zero exit code counts as a failed op. The program is imported from
``src/`` next to this directory; without it the benchmark exits 2.

``--trace 0`` reports the end-to-end metrics:
  setup_s         median over fresh processes of: import netcrf + first op
  throughput_per_s  grid replications per second (mc_*), or specs fitted and
                  written per second (fit_ingest), over the timed ops
  op_ms_p50, op_ms_p90  op latency
  peak_rss_mb     peak resident memory of the workload process
``--trace 1`` reports per-layer metrics from a traced run: per op, median over
ops, <layer>.calls and <layer>.self_ms for cli, montecarlo, graph, dgp,
design, lsq and effects, plus the counters listed in spans.COUNTERS and
trace.overhead_frac. Spans are written to .perfbench/traces/.

Every metric is printed by name with its unit, then run metadata, then the
result as one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# fresh processes timed for setup_s besides the workload process itself
SETUP_PROBES = 4
# a run must finish within this many seconds
RUN_LIMIT_S = 170.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "netcrf").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    """HEAD of the repository this checkout is, or None when it is not one."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py and return its JSON result; raises RuntimeError on failure."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(SRC)] + args
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("workload process ran out of time") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _warmup(workload, seed: int, index: int, work: Path) -> str:
    from inputs import op_seed

    op_dir = work / f"warmup{index}"
    op = workload.prepare(op_seed(seed, 1, index), op_dir)
    return json.dumps({"seed": op.seed, "dir": str(op_dir), "argv": op.argv})


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = STATE / f"work-{os.getpid()}"
    base = ["--workload", workload.name, "--seed", str(seed)]
    probes = []
    try:
        # set-up probes are not needed for the per-layer metrics of a traced run
        for k in range(0 if trace else SETUP_PROBES):
            probes.append(_spawn(base + ["--warmup", _warmup(workload, seed, k, work)], deadline))
        trace_file = STATE / "traces" / f"{workload.name}-seed{seed}.jsonl"
        main = _spawn(base + ["--warmup", _warmup(workload, seed, SETUP_PROBES, work),
                              "--seconds", str(seconds), "--trace", str(int(trace)),
                              "--work", str(work / "ops"), "--trace-file", str(trace_file)],
                      deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload, "probes": probes, "main": main,
            "elapsed_s": time.monotonic() - started}


def summarize(run: dict, trace: bool) -> tuple[dict, dict]:
    """(metrics for the JSON result, extra figures printed for the reader)."""
    import numpy as np

    main, probes, workload = run["main"], run["probes"], run["workload"]
    op_ms = main["op_ms"]
    p50, p90 = (float(v) for v in np.percentile(op_ms, [50, 90]))
    rate = main["units"] / main["busy_s"]
    figures = {
        "samples": {"value": len(op_ms), "unit": "count"},
        f"{workload.unit_name}_per_s": {"value": rate, "unit": "1/s"},
        "samples_beyond_p90": {"value": sum(v > p90 for v in op_ms), "unit": "count"},
        "loop_wall_s": {"value": main["loop_wall_s"], "unit": "s"},
    }
    if trace:
        return main.get("layers", {}), figures
    setups = [p["setup_s"] for p in probes] + [main["setup_s"]]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "throughput_per_s": {"value": rate, "unit": "1/s"},
        "op_ms_p50": {"value": p50, "unit": "ms"},
        "op_ms_p90": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }
    figures["setup_samples_s"] = {"value": setups, "unit": "s"}
    return metrics, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "netcrf" / "__init__.py").is_file():
        print(f"error: the netcrf sources are missing ({SRC / 'netcrf'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    main_result = run["main"]
    attempted = main_result["attempted"] + sum(p["attempted"] for p in run["probes"])
    failed = main_result["failed"] + sum(p["failed"] for p in run["probes"])
    failures = main_result["failures"] + [f for p in run["probes"] for f in p["failures"]]
    metrics, figures = summarize(run, bool(args.trace))
    figures["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}

    unmeasured = [name for name, m in metrics.items() if m["value"] is None]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "versions": main_result["versions"], "git_commit": _git_commit(),
        "source_digest": _source_digest(), "elapsed_s": run["elapsed_s"],
        "missing_entries": main_result.get("missing_entries", []),
        "broken_counters": main_result.get("broken_counters", {}),
        "unmeasured": unmeasured, "failures": failures[:5],
    }
    for name, metric in {**metrics, **figures}.items():
        if metric["value"] is None:
            print(f"{name:<28} unmeasured [{metric['unit']}]")
        elif isinstance(metric["value"], list):
            print(f"{name:<28} {', '.join(f'{v:.4g}' for v in metric['value'])} {metric['unit']}")
        else:
            print(f"{name:<28} {metric['value']:.6g} {metric['unit']}")
    print("meta " + json.dumps(meta))
    record = STATE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"meta": meta, "metrics": metrics, "figures": figures}, indent=1),
                      encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
