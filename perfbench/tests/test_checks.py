"""The output checker: corrupted outputs and failed commands count as failed ops.

Run with ``python3 -m pytest perfbench/tests``.
"""

import argparse
import json
from pathlib import Path

import netcrf.cli as cli
import pytest

import inputs
import worker
from workloads import WORKLOADS


def run_one_op(tmp_path, workload_name, main):
    """One closed-loop op through ``main``; returns the loop's tallies."""
    args = argparse.Namespace(seed=5, seconds=1e-9, trace=0, work=str(tmp_path), trace_file=None)
    return worker.closed_loop(argparse.Namespace(main=main), WORKLOADS[workload_name],
                              inputs.op_seed, args)


def corrupting(edit):
    """A ``main`` that runs the real command, then edits its output directory."""
    def main(argv):
        rc = cli.main(argv)
        edit(Path(argv[argv.index("--out") + 1]))
        return rc
    return main


def test_untouched_outputs_pass(tmp_path):
    for name in WORKLOADS:
        tally = run_one_op(tmp_path / name, name, cli.main)
        assert (tally["attempted"], tally["failed"]) == (1, 0), tally["failures"]


def _perturb_coefficient(out: Path):
    path = out / "fit_tr.json"
    payload = json.loads(path.read_text())
    j = payload["labels"].index("D")
    payload["coefficients"][j] += 1e-4 * (1 + abs(payload["coefficients"][j]))
    path.write_text(json.dumps(payload))


def _break_identity(out: Path):
    path = out / "effects_crf2-J2-t_order2.csv"
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    row = lines[2].split(",")
    col = header.index("tau1")
    row[col] = format(float(row[col]) + 1e-4, ".17g")
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _zero_absent_cell(out: Path):
    path = out / "effects_crf1long.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[2:], start=2):
        if ",," in line or line.endswith(","):
            fields = line.split(",")
            fields[fields.index("")] = "0"
            lines[i] = ",".join(fields)
            break
    else:
        pytest.fail("no absent cell to corrupt")
    path.write_text("\n".join(lines) + "\n")


def _null_retained_coefficient(out: Path):
    path = out / "fit_crf1long.json"
    payload = json.loads(path.read_text())
    payload["coefficients"][0] = None
    path.write_text(json.dumps(payload))


def _asymmetric_vcov(out: Path):
    path = out / "fit_t.json"
    payload = json.loads(path.read_text())
    payload["vcov_robust"][0][1] *= 1.001
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("edit", [_perturb_coefficient, _break_identity, _zero_absent_cell,
                                  _null_retained_coefficient, _asymmetric_vcov])
def test_corrupted_fit_output_fails_the_op(tmp_path, edit):
    tally = run_one_op(tmp_path, "fit_ingest", corrupting(edit))
    assert (tally["attempted"], tally["failed"]) == (1, 1)
    assert "check failed" in tally["failures"][0]


def test_nonzero_exit_fails_the_op(tmp_path):
    tally = run_one_op(tmp_path, "fit_ingest", lambda argv: cli.main(argv + ["--model", "nope"]))
    assert (tally["attempted"], tally["failed"]) == (1, 1)
    assert "exit code 2" in tally["failures"][0]


def test_raising_command_fails_the_op(tmp_path):
    def main(argv):
        raise RuntimeError("boom")
    tally = run_one_op(tmp_path, "mc_table2", main)
    assert (tally["attempted"], tally["failed"]) == (1, 1)
    assert "boom" in tally["failures"][0]


def _shift_bias(out: Path):
    path = out / "table1_comparison.csv"
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[3] = format(float(fields[3]) + 1e-6, ".17g")  # bias of the first cell
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _nan_sd(out: Path):
    path = out / "table1_comparison.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[7] = "nan"
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit", [_shift_bias, _nan_sd])
def test_corrupted_comparison_fails_the_op(tmp_path, edit):
    # op 0 is always recomputed from the layer functions
    tally = run_one_op(tmp_path, "mc_table1", corrupting(edit))
    assert (tally["attempted"], tally["failed"]) == (1, 1)
    assert "check failed" in tally["failures"][0]


def test_inputs_repeat_per_seed_and_differ_across_ops(tmp_path):
    a = inputs.write_network_csvs(inputs.make_network_data(inputs.op_seed(3, 0, 0)), tmp_path / "a")
    b = inputs.write_network_csvs(inputs.make_network_data(inputs.op_seed(3, 0, 0)), tmp_path / "b")
    c = inputs.write_network_csvs(inputs.make_network_data(inputs.op_seed(3, 0, 1)), tmp_path / "c")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert a[0].read_bytes() != c[0].read_bytes()
