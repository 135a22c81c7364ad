"""One workload process: import netcrf, run a warm-up op, then the closed loop.

Started by ``run.py``; not meant to be run by hand. The warm-up op's inputs
are made by the parent, so that before the first op finishes this process
imports nothing but netcrf and the standard library, as a user's process
would. Set-up time is the import of netcrf plus the warm-up op.

The closed loop has one client: the next op starts only after the previous
one has completed and been checked. Each op gets fresh inputs from the
workload seed. With ``--trace 1`` every other op is traced, and the ops in
between measure the untraced time that the tracing overhead is taken against.
The last line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# ops whose comparison is recomputed from the layer functions: the first and
# every RECOMPUTE_EVERY-th after it
RECOMPUTE_EVERY = 25


def execute(main, argv) -> tuple[float, str | None]:
    """Run one netcrf command; returns (milliseconds, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    crashed = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors exit
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        rc, crashed = None, exc
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if crashed is not None:
        return elapsed_ms, "raised " + "".join(traceback.format_exception_only(crashed)).strip()
    if rc != 0:
        return elapsed_ms, f"exit code {rc}: {err.getvalue().strip()[-300:]}"
    return elapsed_ms, None


def check_op(workload, op, recompute: bool) -> str | None:
    try:
        workload.check(op, recompute)
    except Exception as exc:  # any checker error fails the op, with its reason
        return "check failed: " + "".join(traceback.format_exception_only(exc)).strip()
    return None


def _blas_info() -> dict:
    import ctypes
    import glob
    import os

    import numpy
    import scipy

    info = {}
    for pkg in (numpy, scipy):
        blas = pkg.__config__.CONFIG["Build Dependencies"]["blas"]
        entry = {"name": blas.get("name"), "version": blas.get("version")}
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    entry["threads"] = getter()
                    break
        info[pkg.__name__] = entry
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--warmup", required=True, help="JSON: seed, work dir, argv")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", help="directory for the timed ops' files")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    warmup = json.loads(args.warmup)

    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import netcrf.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"netcrf imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    warm_ms, warm_failure = execute(cli.main, warmup["argv"])
    setup_s = time.perf_counter() - start

    sys.path.insert(0, str(BENCH_DIR))
    from inputs import op_seed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    warm_op = workload.prepare(warmup["seed"], Path(warmup["dir"]))
    if warm_op.argv != warmup["argv"]:
        print("warm-up op differs from the one the parent made", file=sys.stderr)
        return 2
    failures = []
    if warm_failure is None:
        warm_failure = check_op(workload, warm_op, recompute=False)
    if warm_failure is not None:
        failures.append(f"warm-up: {warm_failure}")
    warm_op.discard()

    result = {"setup_s": setup_s, "warmup_ms": warm_ms, "attempted": 1, "failed": len(failures)}
    if args.seconds > 0:
        loop = closed_loop(cli, workload, op_seed, args)
        failures += loop.pop("failures")
        result["attempted"] += loop.pop("attempted")
        result["failed"] += loop.pop("failed")
        result.update(loop)
    result["failures"] = failures[:5]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0], "netcrf": cli.__version__,
                          "blas": _blas_info()}
    print(json.dumps(result))
    return 0


def closed_loop(cli, workload, op_seed, args) -> dict:
    from spans import Tracer, layer_metrics

    tracer = Tracer() if args.trace else None
    plain_ms, traced_ms, traced_ops, failures = [], [], [], []
    units = attempted = failed = 0
    busy_s = 0.0
    # the loop stops once ops have run for --seconds; the wall-clock cap keeps
    # the run bounded when checking or input generation is unexpectedly slow
    wall_cap = 2.0 * args.seconds + 30.0
    loop_start = time.perf_counter()
    index = 0
    # a traced run needs an untraced op too, to measure the overhead against
    while ((busy_s < args.seconds or (tracer is not None and not plain_ms))
           and time.perf_counter() - loop_start < wall_cap):
        op = workload.prepare(op_seed(args.seed, 0, index), Path(args.work) / f"op{index}")
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
            tracer.begin(index)
        elapsed_ms, failure = execute(cli.main, op.argv)
        if traced:
            tracer.add("cli.bytes_read", op.bytes_read())
            tracer.add("cli.bytes_written", op.bytes_written())
            tracer.end()
            tracer.uninstall()
        if failure is None:
            failure = check_op(workload, op, recompute=index % RECOMPUTE_EVERY == 0)
        op.discard()
        attempted += 1
        busy_s += elapsed_ms / 1e3
        (traced_ms if traced else plain_ms).append(elapsed_ms)
        if failure is None:
            units += workload.units_per_op
            if traced:
                traced_ops.append(index)
        else:
            failed += 1
            failures.append(f"op {index}: {failure}")
        index += 1

    out = {"attempted": attempted, "failed": failed, "failures": failures,
           "busy_s": busy_s, "loop_wall_s": time.perf_counter() - loop_start, "units": units, "op_ms": plain_ms + traced_ms}
    if tracer is not None:
        if traced_ops and plain_ms:
            out["layers"] = layer_metrics(tracer, traced_ops, workload.layers, traced_ms, plain_ms)
        out["missing_entries"] = tracer.missing_entries
        out["broken_counters"] = tracer.broken_counters
        if args.trace_file:
            path = Path(args.trace_file)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                for record in tracer.span_records():
                    handle.write(json.dumps(record) + "\n")
    return out


if __name__ == "__main__":
    sys.exit(main())
