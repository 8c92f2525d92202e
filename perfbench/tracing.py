"""Spans recorded from outside the package, by swapping public functions
for timing wrappers, and the per-layer metrics computed from them.

A span is [name, start, end, parent index, operation id, count]. The
layer of a span is the part of its name before the first dot. The four
exporters are grouped as the ``trace`` layer's export and the report
build and write as ``analysis``'s, as their metrics name them.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("model_core", "cache_engine", "sampler", "trace", "analysis")

# Byte figures derived from row counts and array shapes, not measured.
COMPUTED = {"model_core.kv_concat_bytes", "cache_engine.gather_bytes",
            "cache_engine.kv_bytes_peak"}


def _concat_rows(args, kwargs, result):
    """Rows forward_partial concatenates per layer: [cached ; fresh]."""
    cache = args[2]
    return 0 if cache is None else cache[0].n_rows + len(args[1])


# (owner attribute path, span name, count taken at the boundary)
TRACED = (
    ("model_core.attention", "model_core.attention", None),
    ("model_core.rope_rotate", "model_core.rope_rotate", None),
    ("sampler.forward_partial", "model_core.forward_partial", _concat_rows),
    ("generate", "sampler.generate", None),
    ("sampler.decode_step", "sampler.decode_step", None),
    ("sampler.predict_x0", "sampler.predict_x0",
     lambda args, kwargs, result: args[0].shape[0]),
    ("sampler.select_to_unmask", "sampler.select_to_unmask", None),
    ("sampler.scatter_outputs", "cache_engine.scatter_outputs", None),
    ("CacheEngine.plan_step", "cache_engine.plan_step", None),
    ("CacheEngine.commit", "cache_engine.commit",
     lambda args, kwargs, result: args[1].reorder_index.shape[0]),
    ("StepTrace.write_jsonl", "trace.write_jsonl", None),
    ("StepTrace.write_csv", "trace.write_csv", None),
    ("cache_engine.write_cache_debug", "trace.write_cache_debug", None),
    ("analysis.build_report", "analysis.build_report", None),
    ("RunReport.write_json", "analysis.write_json", None),
)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[list] = []
        self.op: int | None = None
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None,
                self.op, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        self.op = op
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for path, name, count in TRACED:
            owner_name, attr = path.rpartition(".")[::2]
            owner = self.pkg
            for part in filter(None, owner_name.split(".")):
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path, header: dict) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "count": count}) + "\n")

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def counts(self, name: str) -> list:
        return [s[5] for s in self.spans if s[0] == name]


def trace_counts(trace) -> dict:
    """Exact per-generation counts a traced operation contributes."""
    decoded_at = trace.decode_step_of()
    return {
        "steps": len(trace.records),
        "seq_len": trace.seq_len,
        "cached_rows": sum(len(r.cached_positions) for r in trace.records),
        "stale_rows": sum(1 for r in trace.records for p in r.cached_positions
                          if decoded_at.get(p, -1) >= r.step),
        "refreshes": sum(r.refresh for r in trace.records),
    }


def layer_metrics(tracer: Tracer, ops: list[dict], model: dict) -> dict:
    """Per-layer metrics over the traced operations' spans and counts.

    The COMPUTED byte figures are rows x d_model x 4 B x 2 (K and V) x
    layers, not measurements; ``trace.export_bytes`` is the size of the
    written files. Row, pair and refresh figures are exact counts.
    """
    selfs = tracer.self_times()
    n_ops = len(ops)
    steps = sum(op["steps"] for op in ops)
    rows = sum(op["rows"] for op in ops)
    seq = ops[0]["seq_len"]
    row_bytes = model["d_model"] * 4 * 2 * model["n_layers"]
    gathered = tracer.counts("cache_engine.commit")
    layer_self = {layer: sum(v for k, v in selfs.items()
                             if k.split(".")[0] == layer) for layer in LAYERS}

    def per_step(*names):
        return sum(selfs[n] for n in names) * 1000.0 / steps, "ms/step"

    def per_op(*names):
        return sum(selfs[n] for n in names) * 1000.0 / n_ops, "ms/op"

    m = {
        "model_core.attention_ms": per_step("model_core.attention"),
        "model_core.rope_ms": per_step("model_core.rope_rotate"),
        "model_core.forward_self_ms": per_step("model_core.forward_partial"),
        "model_core.query_rows": (rows / steps, "rows/step"),
        "model_core.attn_pairs": (rows * seq * model["n_layers"] / steps, "count/step"),
        "model_core.kv_concat_bytes": (
            sum(tracer.counts("model_core.forward_partial")) * row_bytes / steps,
            "B/step"),
        "cache_engine.plan_ms": per_step("cache_engine.plan_step"),
        "cache_engine.commit_ms": per_step("cache_engine.commit"),
        "cache_engine.scatter_ms": per_step("cache_engine.scatter_outputs"),
        "cache_engine.hit_ratio": (sum(op["cached_rows"] for op in ops) / (steps * seq),
                                   "ratio"),
        "cache_engine.stale_rows": (sum(op["stale_rows"] for op in ops) / steps,
                                    "rows/step"),
        "cache_engine.refreshes": (sum(op["refreshes"] for op in ops) / n_ops,
                                   "count/gen"),
        "cache_engine.gather_bytes": (sum(gathered) * row_bytes / steps, "B/step"),
        "cache_engine.kv_bytes_peak": (max(gathered) * row_bytes, "B"),
        "sampler.predict_ms": per_step("sampler.predict_x0"),
        "sampler.select_ms": per_step("sampler.select_to_unmask"),
        "sampler.step_self_ms": per_step("sampler.decode_step"),
        "sampler.candidate_rows": (sum(tracer.counts("sampler.predict_x0")) / steps,
                                   "rows/step"),
        "trace.export_ms": per_op("trace.write_jsonl", "trace.write_csv",
                                  "trace.write_cache_debug"),
        "trace.export_bytes": (sum(op["exported"] for op in ops) / n_ops, "B/op"),
        "analysis.report_ms": per_op("analysis.build_report",
                                     "analysis.write_json"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (layer_self[layer] * 1000.0 / n_ops, "ms/op")
    m["bench.layer_coverage"] = (sum(layer_self.values())
                                 / sum(op["wall"] for op in ops), "ratio")
    return m
