"""Spans around the benchmark's calls into modrec, and the per-layer metrics.

A span is {name, start, end, parent, op}: the public modrec function called,
its perf_counter interval relative to the tracer's origin, the id of the
enclosing span and the op it belongs to.  Spans stay in memory and are
written once, when the run ends.  A layer's self time in an op is the summed
duration of its spans minus the time their child spans cover.  An op may be
split into labelled parts (knn_recover's d = 1, 2, 3); each part counts as an
op of its own kind.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext

# Per-layer metrics: name -> (span name, op kind or None for every kind).
# Timed metrics are the median over ops of the layer's self time in the op.
LAYER_TIMES = {
    "harness.generate_s": ("harness.generate", None),
    "harness.metrics_s": ("harness.metrics", None),
    "knn.denoise_s.d1": ("knn.denoise", "d1"),
    "knn.denoise_s.d2": ("knn.denoise", "d2"),
    "knn.denoise_s.d3": ("knn.denoise", "d3"),
    "unwrap.unwrap_multid_s": ("unwrap.unwrap_multid", None),
    "interpolate.evaluate_s": ("interpolate.evaluate", None),
    "graphs.path_graph_s": ("graphs.path_graph", None),
    "graphs.grid_graph_s": ("graphs.grid_graph", None),
    "baselines.solve_ucqp_s.path": ("baselines.solve_ucqp", "path"),
    "baselines.solve_ucqp_s.grid": ("baselines.solve_ucqp", "grid"),
    "baselines.solve_trs_s.path": ("baselines.solve_trs", "path"),
    "baselines.solve_trs_s.grid": ("baselines.solve_trs", "grid"),
    "qcqp.solve_qcqp_s.path": ("qcqp.solve_qcqp", "path"),
    "qcqp.solve_qcqp_s.grid": ("qcqp.solve_qcqp", "grid"),
    "certificate.tightness_verdict_s.path": ("certificate.tightness_verdict", "path"),
    "certificate.tightness_verdict_s.grid": ("certificate.tightness_verdict", "grid"),
    "linalg.hermitian_eig_s": ("linalg.hermitian_eig", None),
    "fileio.write_field_s": ("fileio.write_field", None),
    "fileio.read_field_s": ("fileio.read_field", None),
    "cli.gen_s": ("cli.gen", None),
    "cli.recover_s": ("cli.recover", None),
}

# Counts are summed over the first pass of a traced run, so for one seed
# they repeat exactly.
LAYER_COUNTS = {
    "knn.k.d1": "count",
    "knn.k.d2": "count",
    "knn.k.d3": "count",
    "knn.zero_resultants": "count",
    "baselines.ucqp_cg_iterations": "count",
    "baselines.trs_bisections": "count",
    "qcqp.iterations.path": "count",
    "qcqp.iterations.grid": "count",
    "fileio.bytes_written": "bytes",
    "fileio.bytes_read": "bytes",
}


class NullTracer:
    """Untraced runs: calls pass straight through."""

    enabled = False

    def op(self, kind, replay_of=None):
        return nullcontext()

    def part(self, kind):
        return nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.ops = []
        self.counts = dict.fromkeys(LAYER_COUNTS, 0)
        self.counting = True
        self._stack = []
        self._op = None

    @contextmanager
    def op(self, kind: str, replay_of=None, part_of=None):
        """Root span of one op (or of the replay or a part of one); returns its id."""
        op_id = len(self.ops)
        self.ops.append({"op": op_id, "kind": kind, "replay_of": replay_of, "part_of": part_of})
        outer, self._op = self._op, op_id
        try:
            with self._span("op." + kind):
                yield op_id
        finally:
            self._op = outer

    def part(self, kind: str):
        """A labelled part of the current op."""
        return self.op(kind, part_of=self._op)

    @contextmanager
    def _span(self, name):
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter() - self.origin
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self._span(name):
            return fn(*args, **kwargs)

    def count(self, name, value):
        if self.counting:
            self.counts[name] += int(value)

    def layer_metrics(self) -> dict:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        kinds = {o["op"]: o["kind"] for o in self.ops}
        per_op = {}  # (span name, op id) -> self seconds
        for s, covered in zip(self.spans, child_time):
            if s["op"] is not None:
                key = (s["name"], s["op"])
                per_op[key] = per_op.get(key, 0.0) + (s["end"] - s["start"]) - covered
        out = {}
        for metric, (name, kind) in LAYER_TIMES.items():
            samples = [
                t for (n, op), t in per_op.items() if n == name and kind in (None, kinds[op])
            ]
            out[metric] = {"value": statistics.median(samples) if samples else 0.0, "unit": "s"}
        for metric, unit in LAYER_COUNTS.items():
            out[metric] = {"value": self.counts[metric], "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"ops": self.ops, "spans": self.spans}, fh)
