"""Spans around the public entry points of each netcrf layer.

The benchmark wraps the entry points from its own files: ``install`` swaps
every reference to an entry point in the loaded ``netcrf`` modules for a
wrapper, ``uninstall`` puts the originals back, so untraced ops run the
program untouched. Spans (op id, layer, entry, start, end, parent) stay in
memory; counters that need the call's inputs or result (edges built, design
cells, QR flops, repeated inputs found by hashing) are taken in the wrapper,
and the time they take is charged to no layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import sys
import time

# layer -> (module, entry point); "Class.method" wraps a method on the class.
# rng and errors have no entry of their own: their time counts toward the
# caller's self time.
LAYERS = {
    "cli": [("netcrf.cli", "main")],
    "montecarlo": [("netcrf.montecarlo", "replicate_table"),
                   ("netcrf.montecarlo", "run_study"),
                   ("netcrf.montecarlo", "run_replication")],
    "graph": [("netcrf.graph", "generate_positions"),
              ("netcrf.graph", "build_geometric_network"),
              ("netcrf.graph", "network_from_edge_pairs"),
              ("netcrf.graph", "treated_neighbor_counts")],
    "dgp": [("netcrf.dgp", "simulate_frame"),
            ("netcrf.dgp", "true_aggregate_effects"),
            ("netcrf.dgp", "SampleFrame.__post_init__")],
    "design": [("netcrf.design", "build_design")],
    "lsq": [("netcrf.lsq", "fit")],
    "effects": [("netcrf.effects", "recover_effect_table")],
}

# per-layer counters besides <layer>.calls and <layer>.self_ms, with units
COUNTERS = {
    "graph.edges": "count",
    "graph.redundant_builds": "count",
    "design.cells": "count",
    "lsq.cols": "count",
    "lsq.dropped_cols": "count",
    "lsq.redundant_fits": "count",
    "lsq.qr_flops": "flop_computed",
    "effects.cells": "count",
    "effects.absent_cells": "count",
    "cli.bytes_read": "B",
    "cli.bytes_written": "B",
}

_EFFECT_FIELDS = ("delta0", "tau0", "tau_pm", "tau1", "delta_t", "baseline")


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """Records spans and counters for the op that is currently traced."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, layer, entry, start_ns, end_ns, parent_index)
        self.charged_ns: list[int] = []  # per span: counter time spent inside it
        self.counters: dict[int, dict[str, float]] = {}
        self.broken_counters: dict[str, str] = {}  # layer -> why its counters failed
        self.missing_entries: list[str] = []
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._patches: list[tuple] = []
        self.op = None

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Swap every entry point for a wrapper, wherever netcrf refers to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "netcrf" or name.startswith("netcrf."))]
        for layer, entries in LAYERS.items():
            for module_name, entry in entries:
                owner_name, _, attr = entry.rpartition(".")
                try:
                    owner = importlib.import_module(module_name)
                    if owner_name:
                        owner = getattr(owner, owner_name)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    if f"{module_name}.{entry}" not in self.missing_entries:
                        self.missing_entries.append(f"{module_name}.{entry}")
                    continue
                wrapper = self._wrap(layer, entry, original)
                if owner_name:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, layer: str, entry: str, fn):
        count = _COUNT.get(entry)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.charged_ns.append(0)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (self.op, layer, entry, start, end, parent)
            if count is not None:
                begin = time.perf_counter_ns()
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self, bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    self.broken_counters.setdefault(layer, f"{entry}: {type(exc).__name__}: {exc}")
                if parent >= 0:
                    self.charged_ns[parent] += time.perf_counter_ns() - begin
            return result

        return wrapper

    # -- per-op bookkeeping -------------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op
        self.counters[op] = {name: 0 for name in COUNTERS}
        self._seen = {}

    def end(self) -> None:
        self.op = None

    def add(self, name: str, value: float) -> None:
        self.counters[self.op][name] += value

    def first_time(self, kind: str, key: str) -> bool:
        seen = self._seen.setdefault(kind, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def op_layers(self, op: int) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self ms) for one op; self = duration minus child spans."""
        child_ns = {}
        own = [(i, s) for i, s in enumerate(self.spans) if s is not None and s[0] == op]
        for _, (_, _, _, start, end, parent) in own:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out = {layer: [0, 0.0] for layer in LAYERS}
        for i, (_, layer, _, start, end, _) in own:
            self_ns = end - start - child_ns.get(i, 0) - self.charged_ns[i]
            out[layer][0] += 1
            out[layer][1] += self_ns / 1e6
        return {layer: (calls, ms) for layer, (calls, ms) in out.items()}

    def span_records(self):
        for i, span in enumerate(self.spans):
            if span is not None:
                op, layer, entry, start, end, parent = span
                yield {"i": i, "op": op, "layer": layer, "entry": entry,
                       "start_ns": start, "end_ns": end, "parent": parent}


# -- counters per entry point: (tracer, bound arguments, result) ------------


def _count_geometric(tr: Tracer, args, net) -> None:
    tr.add("graph.edges", net.edge_count)
    key = _digest(args["positions"].coords) + repr(float(args["radius"]))
    if not tr.first_time("positions", key):
        tr.add("graph.redundant_builds", 1)


def _count_ingested(tr: Tracer, args, net) -> None:
    tr.add("graph.edges", net.edge_count)


def _count_design(tr: Tracer, args, x) -> None:
    tr.add("design.cells", x.values.size)


def _count_fit(tr: Tracer, args, result) -> None:
    values = args["x"].values
    n, k = values.shape
    tr.add("lsq.cols", k)
    tr.add("lsq.dropped_cols", len(result.dropped_columns))
    tr.add("lsq.qr_flops", 2 * n * k * k - 2 * k ** 3 / 3)
    if not tr.first_time("design", _digest(values)):
        tr.add("lsq.redundant_fits", 1)


def _count_effects(tr: Tracer, args, table) -> None:
    tr.add("effects.cells", len(table.cells))
    tr.add("effects.absent_cells",
           sum(any(getattr(c, q) is None for q in _EFFECT_FIELDS) for c in table.cells))


_COUNT = {
    "build_geometric_network": _count_geometric,
    "network_from_edge_pairs": _count_ingested,
    "build_design": _count_design,
    "fit": _count_fit,
    "recover_effect_table": _count_effects,
}

def layer_metrics(tracer: Tracer, ops: list[int], expected_layers, traced_ms, plain_ms) -> dict:
    """Per-layer metrics, each the median over ``ops``.

    A layer this workload should reach that recorded no span at all, and the
    counters of a layer whose inputs or results could not be read, are
    reported with value None and status "unmeasured", never as 0.
    """
    per_op = [tracer.op_layers(op) for op in ops]
    metrics = {}
    for layer in LAYERS:
        calls = [p[layer][0] for p in per_op]
        unmeasured = layer in expected_layers and not any(calls)
        for name, unit, values in ((f"{layer}.calls", "count", calls),
                                   (f"{layer}.self_ms", "ms", [p[layer][1] for p in per_op])):
            metrics[name] = _metric(None if unmeasured else statistics.median(values), unit)
    for name, unit in COUNTERS.items():
        layer = name.split(".")[0]
        lost = layer in tracer.broken_counters or metrics[f"{layer}.calls"]["value"] is None
        value = None if lost else statistics.median(tracer.counters[op][name] for op in ops)
        metrics[name] = _metric(value, unit)
    overhead = statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    return metrics


def _metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "status": "unmeasured"}
    return {"value": float(value), "unit": unit}
