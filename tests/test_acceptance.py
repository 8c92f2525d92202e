"""Acceptance suite: one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/WARN lines. Criteria 7 and 10 are informational at the stated
thresholds: they report WARN instead of failing when the wall-clock or the
reveal-spike statistic falls short.
"""

import csv
import dataclasses
import time

import numpy as np
import pytest

from dkvcache import (
    CacheEngine,
    CacheVariant,
    KVSlab,
    NoiseSchedule,
    Remasking,
    SamplerConfig,
    build_layout,
    corrupt,
    forward_full,
    forward_partial,
    generate,
    init_weights,
)
from dkvcache.cli import _thread_cap
from dkvcache.analysis import (
    cache_ratio,
    compute_counters,
    kv_dynamics,
    throughput,
    verify_trace_invariants,
    write_dynamics_csvs,
)

# traces produced by the heavier criteria, re-checked by criterion 9
_TRACES = []


def _register(label, trace):
    _TRACES.append((label, trace))


def _report(num, status, name, detail):
    print(f"\nACCEPTANCE {num:02d} {status} {name}: {detail}")


def _thread_cap_one():
    return _thread_cap(True)


def test_criterion_01_refresh_degeneracy(toy_weights, toy_config):
    """Decode(N=1) must be bit-identical to the no-cache baseline."""
    start = time.perf_counter()
    prompt = (np.arange(16) % 400) + 1
    matched = 0
    for i in range(50):
        remasking = Remasking.RANDOM if i < 25 else Remasking.LOW_CONFIDENCE
        weights = toy_weights if i < 25 else init_weights(
            dataclasses.replace(toy_config, weight_seed=100 + i))
        kwargs = dict(gen_len=64, steps=64, block_size=32, temperature=0.0,
                      remasking=remasking, sample_seed=1000 + i)
        plain, plain_trace = generate(prompt, SamplerConfig(
            **kwargs, cache=CacheVariant.none()), weights, timed=False)
        cached, cached_trace = generate(prompt, SamplerConfig(
            **kwargs, cache=CacheVariant.decode(1)), weights, timed=False)
        assert np.array_equal(plain, cached), f"seed set {i}: sequences differ"
        matched += 1
        if i % 10 == 0:
            _register(f"c1 none seed {i}", plain_trace)
            _register(f"c1 decode1 seed {i}", cached_trace)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 1 exceeded its 2 min budget ({elapsed:.0f}s)"
    _report(1, "PASS", "oracle equivalence (refresh degeneracy)",
            f"{matched}/50 seeds bit-identical in {elapsed:.1f}s")


def test_criterion_02_commit_gather_oracle(tiny_weights):
    """Layout path vs naive natural-order gather/scatter, 100 random cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    width = tiny_weights.config.d_model
    worst_logit = 0.0
    for _ in range(100):
        seq = int(rng.integers(4, 65))
        tokens = rng.integers(0, 100, size=seq)
        full = forward_full(tokens, tiny_weights)
        n_cached = int(rng.integers(0, seq))
        cached_pos = np.sort(rng.choice(seq, size=n_cached, replace=False))
        compute = np.setdiff1d(np.arange(seq), cached_pos)
        cache = [KVSlab(layer=i, keys=s.keys[cached_pos],
                        values=s.values[cached_pos],
                        row_positions=cached_pos.copy())
                 for i, s in enumerate(full.fresh_kv)]
        part = forward_partial(tokens, compute, cache, tiny_weights)
        worst_logit = max(worst_logit,
                          float(np.abs(part.logits - full.logits[compute]).max()))

        next_n = int(rng.integers(0, seq + 1))
        next_pos = np.sort(rng.choice(seq, size=next_n, replace=False))
        plan = build_layout(compute.tolist(), cached_pos.tolist(),
                            next_pos.tolist(), seq)
        engine = CacheEngine(CacheVariant.decode(), seq_len=seq)
        engine.commit(plan, part.kv)
        for layer, slab in enumerate(cache):
            nxt = engine.slabs[layer]
            buf_k = np.zeros((seq, width), dtype=np.float32)
            buf_v = np.zeros((seq, width), dtype=np.float32)
            for src in (slab, part.fresh_kv[layer]):
                buf_k[src.row_positions] = src.keys
                buf_v[src.row_positions] = src.values
            assert nxt.keys.tobytes() == buf_k[next_pos].tobytes()
            assert nxt.values.tobytes() == buf_v[next_pos].tobytes()
    assert worst_logit <= 1e-5, f"max logit drift {worst_logit:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 2 exceeded its 1 min budget ({elapsed:.0f}s)"
    _report(2, "PASS", "commit gather oracle",
            f"100 cases, K/V exact, logits within {worst_logit:.1e} "
            f"({elapsed:.1f}s)")


def test_criterion_03_layout_permutation_invariance(toy_weights):
    rng = np.random.default_rng(303)
    tokens = rng.integers(1, 500, size=40)
    natural = forward_full(tokens, toy_weights).logits
    worst = 0.0
    for _ in range(50):
        perm = rng.permutation(40)
        permuted = forward_partial(tokens, perm, None, toy_weights).logits
        restored = np.empty_like(permuted)
        restored[perm] = permuted
        worst = max(worst, float(np.abs(restored - natural).max()))
    assert worst <= 1e-5, f"max per-token logit drift {worst:.2e}"
    _report(3, "PASS", "layout-permutation invariance",
            f"50 permutations within {worst:.1e}")


def test_criterion_04_delay_correctness(tiny_weights):
    """Cached rows byte-equal the fresh rows from one step after the reveal."""
    checked_rows = 0
    for seed in range(10):
        interval = None if seed < 5 else 4
        cfg = SamplerConfig(gen_len=24, steps=24, block_size=24,
                            sample_seed=seed,
                            cache=CacheVariant.decode(interval))
        _, trace = generate(np.arange(1, 7), cfg, tiny_weights, timed=False,
                            kv_audit=True)
        decode_step_of = trace.decode_step_of()
        # every decoded position is recomputed one step later
        for pos, step in decode_step_of.items():
            if step + 1 < len(trace.records):
                assert pos in trace.records[step + 1].compute_set
        # cache rows always byte-equal the most recent fresh computation
        last_fresh = {}
        for rec in trace.records:
            for layer, (positions, keys, values) in enumerate(rec.audit.fresh):
                for row, pos in enumerate(positions):
                    last_fresh[(layer, int(pos))] = (keys[row], values[row])
            for layer, (positions, keys, values) in enumerate(
                    rec.audit.cached_after):
                for row, pos in enumerate(positions):
                    ref_k, ref_v = last_fresh[(layer, int(pos))]
                    assert keys[row].tobytes() == ref_k.tobytes()
                    assert values[row].tobytes() == ref_v.tobytes()
                    checked_rows += 1
        # without refreshes the position is cache-served from reveal + 2 on
        if interval is None:
            for pos, step in decode_step_of.items():
                for later in trace.records[step + 2:]:
                    assert pos not in later.compute_set
                    assert pos in later.cached_positions
        _register(f"c4 decode seed {seed}", trace)
    _report(4, "PASS", "delay correctness",
            f"10 seeds, {checked_rows} cached rows byte-equal their source")


def test_criterion_05_greedy_boundedness(tiny_weights):
    """Per-step compute independent of length; totals grow linearly.

    Step 0 is exempt: with an empty cache the first pass necessarily
    computes every row to populate it.
    """
    window = 4
    bound = 1 + 1 + (window + 1)
    ratios = {}
    for gen_len in (64, 128, 256):
        cfg = SamplerConfig(gen_len=gen_len, steps=gen_len, block_size=gen_len,
                            sample_seed=7, remasking=Remasking.RANDOM,
                            cache=CacheVariant.greedy(None, window))
        _, trace = generate(np.zeros(0, dtype=np.int64), cfg, tiny_weights,
                            timed=False)
        rows = [rec.rows_computed for rec in trace.records]
        assert all(r <= bound for r in rows[1:]), \
            f"L={gen_len}: step rows {max(rows[1:])} exceed {bound}"
        ratios[gen_len] = sum(rows) / gen_len
        _register(f"c5 greedy L={gen_len}", trace)
    spread = max(ratios.values()) / min(ratios.values()) - 1.0
    assert spread <= 0.05, f"total_rows/L spread {spread:.3f} exceeds 5%"
    _report(5, "PASS", "greedy boundedness",
            f"steps>=1 capped at {bound} rows; total/L ratios "
            + ", ".join(f"L={k}: {v:.2f}" for k, v in ratios.items())
            + f" (spread {spread * 100:.1f}%)")


def _decode_rows_closed_form(prompt_len, gen_len, steps, interval, counts):
    """Independent arithmetic for the decode variant's per-step query rows."""
    seq_len = prompt_len + gen_len
    masked_at = [gen_len]
    for k in counts:
        masked_at.append(masked_at[-1] - k)
    rows = []
    for t in range(steps):
        if t == 0 or (interval is not None and t % interval == 0):
            rows.append(seq_len)
        else:
            rows.append(masked_at[t - 1])
    return rows


def test_criterion_06_compute_reduction(toy_weights):
    prompt = (np.arange(64) % 400) + 1
    kwargs = dict(gen_len=256, steps=256, block_size=256, sample_seed=6)
    _, base_trace = generate(prompt, SamplerConfig(
        **kwargs, cache=CacheVariant.none()), toy_weights, timed=False)
    _, dec_trace = generate(prompt, SamplerConfig(
        **kwargs, cache=CacheVariant.decode(8)), toy_weights, timed=False)
    base_rows = compute_counters(base_trace).total_query_rows
    dec_rows = compute_counters(dec_trace).total_query_rows

    assert base_rows == 256 * 320
    expected = _decode_rows_closed_form(64, 256, 256, 8, [1] * 256)
    assert [rec.rows_computed for rec in dec_trace.records] == expected
    assert dec_rows == sum(expected)
    # logits only for the rows the sampler reads: one block, and every
    # masked position is computed, so step t reads the 256 - t masked rows
    logit_rows = [256 - t for t in range(256)]
    for trace in (base_trace, dec_trace):
        assert [rec.logit_rows for rec in trace.records] == logit_rows
        assert compute_counters(trace).total_logit_rows == sum(logit_rows)
    reduction = 1.0 - dec_rows / base_rows
    assert reduction >= 0.40, f"row reduction {reduction:.3f} below 40%"
    _register("c6 none", base_trace)
    _register("c6 decode8", dec_trace)
    _report(6, "PASS", "compute reduction",
            f"{base_rows} -> {dec_rows} query rows "
            f"({reduction * 100:.1f}% lower), {sum(logit_rows)} logit rows "
            "each, counters match closed form")


def test_criterion_07_wall_clock(toy_weights):
    """Informational: caching should beat the baseline on one CPU thread."""
    prompt = (np.arange(16) % 400) + 1
    kwargs = dict(gen_len=512, steps=256, block_size=512, sample_seed=11)
    with _thread_cap_one():
        _, base_trace = generate(prompt, SamplerConfig(
            **kwargs, cache=CacheVariant.none()), toy_weights, timed=True)
        _, dec_trace = generate(prompt, SamplerConfig(
            **kwargs, cache=CacheVariant.decode(8)), toy_weights, timed=True)
    base_tps = throughput(base_trace)
    dec_tps = throughput(dec_trace)
    speedup = dec_tps / base_tps
    rows_cut = 1.0 - (compute_counters(dec_trace).total_query_rows
                      / compute_counters(base_trace).total_query_rows)
    _register("c7 none", base_trace)
    _register("c7 decode8", dec_trace)
    detail = (f"{base_tps:.1f} -> {dec_tps:.1f} tok/s ({speedup:.2f}x), "
              f"rows cut {rows_cut * 100:.1f}%")
    if speedup >= 1.3:
        _report(7, "PASS", "wall-clock speedup", detail)
    else:
        # memory-bound host: the row-count criterion (6) governs
        _report(7, "WARN", "wall-clock speedup",
                detail + " (below 1.3x, reported as informational)")


def test_criterion_08_corruption_marginal():
    schedule = NoiseSchedule(total_steps=128)
    rng = np.random.default_rng(8)
    x0 = (np.arange(100) % 120) + 1
    mask_id = 126
    trials = 10_000
    details = []
    for t in (32, 64, 96):
        expected = 1.0 - schedule.alpha_bar(t)
        masked = sum(
            int((corrupt(x0, t, schedule, rng, mask_id) == mask_id).sum())
            for _ in range(trials))
        rate = masked / (trials * 100)
        sigma = np.sqrt(expected * (1 - expected) / (trials * 100))
        assert abs(rate - expected) <= 3 * sigma, \
            f"t/T={t / 128}: rate {rate:.4f} vs {expected} (3s={3 * sigma:.4f})"
        details.append(f"t/T={t / 128}: {rate:.4f}")
    _report(8, "PASS", "corruption marginal",
            "within 3 sigma at " + ", ".join(details))


def test_criterion_10_dynamics(tiny_weights, tmp_path):
    cfg = SamplerConfig(gen_len=32, steps=32, block_size=32, sample_seed=10,
                        snapshot_layer=1)
    _, trace = generate(np.arange(1, 9), cfg, tiny_weights, timed=False)
    _register("c10 snapshots", trace)
    result = kv_dynamics(*trace.snapshot_arrays())
    write_dynamics_csvs(result, tmp_path)
    for name in ("dynamics_key_euclidean.csv", "dynamics_value_euclidean.csv"):
        with open(tmp_path / name) as fh:
            rows = list(csv.reader(fh))
        matrix = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
        assert matrix.shape == (32, 32)
        assert np.array_equal(matrix, matrix.T), f"{name} not symmetric"
        assert np.array_equal(np.diag(matrix), np.zeros(32)), \
            f"{name} diagonal not exactly zero"
    fraction = result.spike_fraction
    if fraction >= 0.8:
        _report(10, "PASS", "dynamics reproduction",
                f"CSVs well-formed; reveal spike in {fraction * 100:.0f}% "
                "of tokens")
    else:
        _report(10, "WARN", "dynamics reproduction",
                f"CSVs well-formed; reveal spike only {fraction * 100:.0f}% "
                "(< 80%, reported, not fatal)")


def test_criterion_11_prefill_immutability(tiny_weights):
    prompt = (np.arange(128) % 100) + 1
    prefill = set(range(128))
    for variant in (CacheVariant.prefill(), CacheVariant.pd(8)):
        cfg = SamplerConfig(gen_len=32, steps=32, block_size=32, sample_seed=11,
                            cache=variant)
        _, trace = generate(prompt, cfg, tiny_weights, timed=False,
                            kv_audit=True)
        first = trace.records[0].audit.cached_after
        last = trace.records[-1].audit.cached_after
        for layer in range(len(first)):
            pos_f, keys_f, values_f = first[layer]
            pos_l, keys_l, values_l = last[layer]
            sel_f = [i for i, p in enumerate(pos_f) if int(p) in prefill]
            sel_l = [i for i, p in enumerate(pos_l) if int(p) in prefill]
            assert [int(pos_f[i]) for i in sel_f] == sorted(prefill)
            assert [int(pos_l[i]) for i in sel_l] == sorted(prefill)
            assert keys_f[sel_f].tobytes() == keys_l[sel_l].tobytes()
            assert values_f[sel_f].tobytes() == values_l[sel_l].tobytes()
        for rec in trace.records[1:]:
            assert not prefill & set(rec.compute_set)
        _register(f"c11 {variant.describe()}", trace)
    _report(11, "PASS", "prefill immutability",
            "prefill rows byte-identical from step 0 to the final step "
            "(prefill and pd)")


def test_criterion_09_sampler_invariants():
    """Runs last: re-checks every trace the other criteria produced."""
    assert _TRACES, "no traces registered by earlier criteria"
    for label, trace in _TRACES:
        try:
            verify_trace_invariants(trace)
        except ValueError as exc:
            pytest.fail(f"{label}: {exc}")
        assert cache_ratio(trace) >= 0.0
    _report(9, "PASS", "sampler invariants",
            f"immutability, monotonicity, containment and zero residual "
            f"masks over {len(_TRACES)} traces")
