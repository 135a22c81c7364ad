"""Tracing: self time, counters, and layers that can no longer be measured."""

import netcrf.cli as cli
import pytest

import inputs
import worker
from spans import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS


def traced_op(tracer, workload_name, tmp_path):
    op = WORKLOADS[workload_name].prepare(inputs.op_seed(11, 0, 0), tmp_path / "op")
    tracer.install()
    tracer.begin(0)
    try:
        elapsed_ms, failure = worker.execute(cli.main, op.argv)
    finally:
        tracer.end()
        tracer.uninstall()
    assert failure is None
    return elapsed_ms


def test_self_times_add_up_to_the_outer_span(tmp_path):
    tracer = Tracer()
    traced_op(tracer, "fit_ingest", tmp_path)
    spans = list(tracer.span_records())
    (root,) = [s for s in spans if s["parent"] == -1]
    assert root["layer"] == "cli"
    layers = tracer.op_layers(0)
    total_self_ns = sum(ms for _, ms in layers.values()) * 1e6
    charged_ns = sum(tracer.charged_ns)
    assert total_self_ns + charged_ns == pytest.approx(root["end_ns"] - root["start_ns"], abs=1)
    assert all(ms >= 0 for _, ms in layers.values())
    assert tracer.counters[0]["lsq.cols"] > 0 and tracer.counters[0]["lsq.redundant_fits"] == 0


def test_uninstall_restores_the_program():
    import netcrf.lsq

    before = (cli.lsq_fit, netcrf.lsq.fit, cli.main)
    tracer = Tracer()
    tracer.install()
    assert cli.lsq_fit is not before[0]
    tracer.uninstall()
    assert (cli.lsq_fit, netcrf.lsq.fit, cli.main) == before


def test_entry_point_no_longer_called_is_unmeasured(tmp_path, monkeypatch):
    # as if the command now reached least squares through another function
    original = cli.lsq_fit
    monkeypatch.setattr(cli, "lsq_fit", lambda *a, **k: original(*a, **k))
    tracer = Tracer()
    ms = traced_op(tracer, "fit_ingest", tmp_path)
    metrics = layer_metrics(tracer, [0], WORKLOADS["fit_ingest"].layers, [ms], [ms])
    for name in ("lsq.calls", "lsq.self_ms", "lsq.cols", "lsq.qr_flops", "lsq.redundant_fits"):
        assert metrics[name] == {"value": None, "unit": metrics[name]["unit"],
                                 "status": "unmeasured"}
    # a layer this workload does not reach is a measured zero
    assert metrics["montecarlo.calls"]["value"] == 0
    assert metrics["design.calls"]["value"] == 6


def test_unreadable_counter_input_is_unmeasured(tmp_path, monkeypatch):
    import spans

    def broken(tr, args, result):
        raise KeyError("x")
    monkeypatch.setitem(spans._COUNT, "fit", broken)
    tracer = Tracer()
    ms = traced_op(tracer, "fit_ingest", tmp_path)
    metrics = layer_metrics(tracer, [0], WORKLOADS["fit_ingest"].layers, [ms], [ms])
    assert metrics["lsq.calls"]["value"] == 6
    assert metrics["lsq.qr_flops"]["value"] is None
    assert metrics["design.cells"]["value"] > 0


def test_every_layer_has_an_entry_point():
    assert set(LAYERS) == {"cli", "montecarlo", "graph", "dgp", "design", "lsq", "effects"}
