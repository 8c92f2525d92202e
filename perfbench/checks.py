"""Correctness gate: reference checks at set-up and per-operation checks.

Nothing here reuses the engine's own arithmetic or bookkeeping: the
reference model is written out from the model definition in float64, the
cache rows are compared as raw bytes, and the per-step row counts are derived
from the variant rule and the trace's masked counts.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import GATE, Workload, parse_variant

# float32 against float64 over 4 layers of width 128: the engine agrees to
# about 1e-6 of the logit scale; a wrong rotary angle or a mis-gathered
# cache row moves logits by 1e-2 or more.
REFERENCE_RTOL = 1e-4


def reference_logits(tokens: np.ndarray, weights) -> np.ndarray:
    """Plain float64 forward pass of the toy model from ``ModelWeights``.

    RMS norm (eps 1e-6), rotary on interleaved pairs (2i, 2i+1) at angle
    position * base**(-2i/d_head), per-head softmax attention over every
    position, tanh-GELU feed-forward, residual adds, final norm and head.
    """
    cfg = weights.config
    n, heads, dh = tokens.shape[0], cfg.n_heads, cfg.d_head
    f64 = lambda a: np.asarray(a, dtype=np.float64)  # noqa: E731

    def rms(x, gain):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6) * f64(gain)

    angles = np.outer(np.arange(n), cfg.rope_base ** (-2.0 * np.arange(dh // 2) / dh))
    cos, sin = np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]

    def rotate(x):
        pairs = x.reshape(n, heads, dh // 2, 2)
        even, odd = pairs[..., 0], pairs[..., 1]
        return np.stack([even * cos - odd * sin, even * sin + odd * cos],
                        axis=-1).reshape(n, heads * dh)

    h = f64(weights.embedding)[tokens]
    for layer in weights.layers:
        x = rms(h, layer.attn_gain)
        q, k = rotate(x @ f64(layer.wq)), rotate(x @ f64(layer.wk))
        v = x @ f64(layer.wv)
        out = np.empty_like(q)
        for hd in range(heads):
            cols = slice(hd * dh, (hd + 1) * dh)
            scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
            w = np.exp(scores - scores.max(axis=1, keepdims=True))
            out[:, cols] = (w / w.sum(axis=1, keepdims=True)) @ v[:, cols]
        h = h + out @ f64(layer.wo)
        u = rms(h, layer.ffn_gain) @ f64(layer.w1)
        h = h + (0.5 * u * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                          * (u + 0.044715 * u ** 3)))) @ f64(layer.w2)
    return rms(h, weights.final_gain) @ f64(weights.head)


def reference_check(pkg, weights, seq_len: int, seed: int) -> list[str]:
    """Compare ``forward_full`` and a cached ``forward_partial`` to float64.

    The partial pass serves a random half of the positions from the full
    pass's K/V rows and computes the rest in a shuffled order, so faults
    on the cached path show too. Returns the failures found.
    """
    rng = np.random.default_rng([seed, 1])
    tokens = rng.integers(0, weights.config.vocab_size, size=seq_len)
    ref = reference_logits(tokens, weights)
    tol = REFERENCE_RTOL * float(np.abs(ref).max())
    full = pkg.forward_full(tokens, weights)
    cached = np.sort(rng.choice(seq_len, size=seq_len // 2, replace=False))
    compute = rng.permutation(np.setdiff1d(np.arange(seq_len), cached))
    cache = [pkg.KVSlab(layer=i, keys=s.keys[cached], values=s.values[cached],
                        row_positions=cached.copy())
             for i, s in enumerate(full.fresh_kv)]
    part = pkg.forward_partial(tokens, compute, cache, weights)
    failures = []
    for label, got, want in (("forward_full", full.logits, ref),
                             ("forward_partial", part.logits, ref[compute])):
        err = float(np.abs(got - want).max())
        if not err <= tol:
            failures.append(f"{label} logits differ from the float64 "
                            f"reference by {err:.3e} (tolerance {tol:.3e})")
    return failures


def _stale_copy(trace) -> str | None:
    """The first cached row that is not the latest row computed for it."""
    def rows(slabs):
        for layer, (positions, keys, values) in enumerate(slabs):
            for row, pos in enumerate(positions):
                yield (layer, int(pos)), keys[row].tobytes() + values[row].tobytes()

    latest = {}
    for rec in trace.records:
        latest.update(rows(rec.audit.fresh))
        for (layer, pos), data in rows(rec.audit.cached_after):
            if latest.get((layer, pos)) != data:
                return (f"step {rec.step} layer {layer}: cached row of "
                        f"position {pos} is not the row computed for it")
    return None


def variant_gate(pkg, weights, seed: int) -> list[str]:
    """Every cache variant on one short seeded input, with ``kv_audit=True``.

    Each run must pass the per-operation checks and keep every cached row
    byte-equal to the latest row computed for its position (acceptance
    criterion 4), which a wrong gather or re-rotated cached keys break;
    ``decode:1`` must reproduce the ``none`` sequence (criterion 1).
    """
    rng = np.random.default_rng([seed, 2])
    prompt = rng.integers(0, weights.config.mask_token_id, size=GATE[0].prompt_len)
    sample_seed = int(rng.integers(2**31 - 1))
    failures, sequences = [], {}
    for gate in GATE:
        cfg = pkg.SamplerConfig(gen_len=gate.gen_len, steps=gate.steps,
                                block_size=gate.block_size,
                                remasking=pkg.Remasking(gate.remasking),
                                sample_seed=sample_seed,
                                cache=pkg.CacheVariant.parse(gate.variant))
        try:
            tokens, trace = pkg.generate(prompt, cfg, weights, timed=False,
                                         kv_audit=True)
        except Exception as exc:  # a crash is a gate failure, not a traceback
            failures.append(f"{gate.name}: {exc!r}")
            continue
        problems = _invariants(pkg, trace) + expected_rows(gate, trace.records)
        problems.append(_stale_copy(trace))
        failures += [f"{gate.name}: {p}" for p in problems if p]
        sequences[gate.variant] = tokens.tobytes()
    if sequences.get("decode:1") != sequences.get("none"):
        failures.append("decode:1 sequence differs from none")
    return failures


def _invariants(pkg, trace) -> list[str]:
    try:
        pkg.analysis.verify_trace_invariants(trace)
    except ValueError as exc:
        return [f"trace invariants: {exc}"]
    return []


def expected_rows(workload: Workload, records) -> list[str]:
    """Per-step ``rows_computed`` and refresh flags against the closed form."""
    kind, interval, window = parse_variant(workload.variant)
    seq, prompt = workload.seq_len, workload.prompt_len
    failures = []
    for t, rec in enumerate(records):
        refresh = (t > 0 and interval is not None and t % interval == 0
                   and kind in ("decode", "pd", "greedy"))
        if kind == "greedy" and t > 0 and not refresh:
            # current decodes plus a (w+1)-wide window around each previous
            # decode: criterion 5's 1 + 1 + (w + 1), scaled to k per step.
            k_now = len(rec.decoded_positions)
            bound = k_now + len(records[t - 1].decoded_positions) * (window + 2)
            if not k_now <= rec.rows_computed <= bound:
                failures.append(f"step {t}: {rec.rows_computed} rows outside "
                                f"[{k_now}, {bound}]")
        else:
            if t == 0 or kind == "none" or (refresh and kind != "pd"):
                want = seq
            elif kind == "prefill" or refresh:
                want = seq - prompt
            else:
                want = records[t - 1].masked_count
            if rec.rows_computed != want:
                failures.append(f"step {t}: {rec.rows_computed} rows "
                                f"computed, closed form gives {want}")
        if rec.refresh != refresh:
            failures.append(f"step {t}: refresh flag {rec.refresh}, "
                            f"expected {refresh}")
    return failures


def outputs_parse(trace, out_dir: Path) -> list[str]:
    """Re-read the four exported files and tie them back to the trace."""
    records, seq = trace.records, trace.seq_len
    rows = [rec.rows_computed for rec in records]
    failures = []
    lines = [json.loads(line) for line in
             (out_dir / "trace.jsonl").read_text().splitlines()]
    if [obj["rows_computed"] for obj in lines] != rows:
        failures.append("trace.jsonl rows_computed disagree with the trace")
    with open(out_dir / "trace_summary.csv", newline="") as fh:
        table = list(csv.reader(fh))
    if table[0] != ["step", "masked", "rows_computed", "decoded", "refresh",
                    "millis"] or [int(r[2]) for r in table[1:]] != rows:
        failures.append("trace_summary.csv does not match the trace")
    debug = [json.loads(line) for line in
             (out_dir / "cache_debug.jsonl").read_text().splitlines()]
    if [len(obj["compute_set"]) for obj in debug] != rows or any(
            sorted(obj["cached_positions"] + obj["compute_set"]) != list(range(seq))
            for obj in debug):
        failures.append("cache_debug.jsonl: cached and computed rows do not "
                        "partition the sequence at every step")
    report = json.loads((out_dir / "report.json").read_text())
    if report["total_query_rows"] != sum(rows) or not report["tokens_per_second"] > 0:
        failures.append("report.json does not match the trace")
    return failures


def check_operation(pkg, workload: Workload, trace, out_dir: Path) -> list[str]:
    failures = _invariants(pkg, trace) + expected_rows(workload, trace.records)
    try:
        failures += outputs_parse(trace, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failures.append(f"output files do not parse: {exc!r}")
    return failures
