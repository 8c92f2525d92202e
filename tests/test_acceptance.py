"""Acceptance suite: one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/WARN lines. Criteria 7 and 10 are informational at the stated
thresholds: they report WARN instead of failing when the wall-clock or the
reveal-spike statistic falls short.
"""

import csv
import time

import numpy as np
import pytest

from dkvcache import (CacheVariant, Remasking, SamplerConfig, VariantKind,
                      generate)
from dkvcache.cli import _thread_cap
from dkvcache.analysis import (
    build_report,
    kv_dynamics,
    verify_trace_invariants,
    write_dynamics_csvs,
)
from dkvcache.selftest import (
    FAULTS,
    check_corruption_marginal,
    check_kept_rows,
    check_partial_forward,
    check_refresh_degeneracy,
    check_rotary_reference,
)


def _report(num, status, name, detail):
    print(f"\nACCEPTANCE {num:02d} {status} {name}: {detail}")


def _passes(num, name, result):
    """Assert one check's (ok, detail) and print its status line."""
    ok, detail = result
    assert ok, f"criterion {num} ({name}): {detail}"
    _report(num, "PASS", name, detail)


def test_criterion_01_refresh_degeneracy(toy_weights):
    """Decode(N=1) must be bit-identical to the no-cache baseline."""
    start = time.perf_counter()
    result = check_refresh_degeneracy(
        toy_weights, seeds=50, prompt=(np.arange(16) % 400) + 1, gen_len=64,
        steps=64, block_size=32, first_seed=1000)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 1 exceeded its 2 min budget ({elapsed:.0f}s)"
    _passes(1, "oracle equivalence (refresh degeneracy)", result)


# criterion 2's size; the layout fault must fail the check at this size
_C2_SIZE = dict(cases=100, seq_range=(4, 65), seed=202)


def test_criterion_02_kept_rows_oracle(tiny_weights):
    """Kept store rows vs their last computation, 100 random cases."""
    start = time.perf_counter()
    result = check_kept_rows(tiny_weights, **_C2_SIZE)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 2 exceeded its 1 min budget ({elapsed:.0f}s)"
    _passes(2, "kept rows oracle", result)


def test_criterion_02_fails_under_layout_fault(tiny_weights):
    with FAULTS["layout"]():
        ok, detail = check_kept_rows(tiny_weights, **_C2_SIZE)
    assert not ok
    assert "differ from the naive next cache" in detail


def test_criterion_03_layout_permutation_invariance(toy_weights):
    _passes(3, "layout-permutation invariance", check_partial_forward(
        toy_weights, cases=50, seq_range=(40, 41), seed=303, cached=False))


def test_criterion_04_delay_correctness(tiny_weights):
    """Cached rows byte-equal the fresh rows from one step after the reveal."""
    # (gen_len, steps, seed, refresh interval): one token per step with and
    # without refreshes, then two tokens per step
    runs = ([(24, 24, seed, None if seed < 5 else 4) for seed in range(10)]
            + [(16, 8, 5, None)])
    checked_rows = 0
    for gen_len, steps, seed, interval in runs:
        cfg = SamplerConfig(gen_len=gen_len, steps=steps, block_size=gen_len,
                            sample_seed=seed,
                            cache=CacheVariant(VariantKind.DECODE, interval))
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
    _report(4, "PASS", "delay correctness",
            f"{len(runs)} runs, {checked_rows} cached rows byte-equal their "
            "source")


def test_criterion_05_greedy_boundedness(tiny_weights):
    """Per-step compute independent of length; totals grow linearly.

    Step 0 is exempt: with an empty cache the first pass necessarily
    computes every row to populate it.
    """
    window = 4
    bound = 1 + 1 + (window + 1)
    # (prompt, gen_len, seed): the unprompted runs measure growth with
    # length, the prompted one the cap with a prompt in the cache
    runs = ([(np.zeros(0, dtype=np.int64), gen_len, 7)
             for gen_len in (64, 128, 256)]
            + [(np.arange(1, 5), 24, 5)])
    ratios = {}
    for prompt, gen_len, seed in runs:
        cfg = SamplerConfig(gen_len=gen_len, steps=gen_len, block_size=gen_len,
                            sample_seed=seed, remasking=Remasking.RANDOM,
                            cache=CacheVariant.parse(f"greedy:inf:{window}"))
        _, trace = generate(prompt, cfg, tiny_weights, timed=False)
        rows = [rec.rows_computed for rec in trace.records]
        assert all(r <= bound for r in rows[1:]), \
            f"L={gen_len}: step rows {max(rows[1:])} exceed {bound}"
        if not prompt.size:
            ratios[gen_len] = sum(rows) / gen_len
    spread = max(ratios.values()) / min(ratios.values()) - 1.0
    assert spread <= 0.05, f"total_rows/L spread {spread:.3f} exceeds 5%"
    _report(5, "PASS", "greedy boundedness",
            f"steps>=1 capped at {bound} rows in {len(runs)} runs; total/L "
            "ratios " + ", ".join(f"L={k}: {v:.2f}" for k, v in ratios.items())
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
        **kwargs, cache=CacheVariant.parse("none")), toy_weights, timed=False)
    _, dec_trace = generate(prompt, SamplerConfig(
        **kwargs, cache=CacheVariant.parse("decode:8")), toy_weights, timed=False)
    base_rows = build_report(base_trace).total_query_rows
    dec_rows = build_report(dec_trace).total_query_rows

    assert base_rows == 256 * 320
    expected = _decode_rows_closed_form(64, 256, 256, 8, [1] * 256)
    assert [rec.rows_computed for rec in dec_trace.records] == expected
    assert dec_rows == sum(expected)
    # logits only for the rows the sampler reads: one block, and every
    # masked position is computed, so step t reads the 256 - t masked rows
    logit_rows = [256 - t for t in range(256)]
    for trace in (base_trace, dec_trace):
        assert [rec.logit_rows for rec in trace.records] == logit_rows
        assert build_report(trace).total_logit_rows == sum(logit_rows)
    reduction = 1.0 - dec_rows / base_rows
    assert reduction >= 0.40, f"row reduction {reduction:.3f} below 40%"
    _report(6, "PASS", "compute reduction",
            f"{base_rows} -> {dec_rows} query rows "
            f"({reduction * 100:.1f}% lower), {sum(logit_rows)} logit rows "
            "each, counters match closed form")


def test_criterion_07_wall_clock(toy_weights):
    """Informational: caching should beat the baseline on one CPU thread."""
    prompt = (np.arange(16) % 400) + 1
    kwargs = dict(gen_len=512, steps=256, block_size=512, sample_seed=11)
    with _thread_cap(True):
        _, base_trace = generate(prompt, SamplerConfig(
            **kwargs, cache=CacheVariant.parse("none")), toy_weights,
            timed=True)
        _, dec_trace = generate(prompt, SamplerConfig(
            **kwargs, cache=CacheVariant.parse("decode:8")), toy_weights,
            timed=True)
    base, dec = build_report(base_trace), build_report(dec_trace)
    base_tps, dec_tps = base.tokens_per_second, dec.tokens_per_second
    speedup = dec_tps / base_tps
    rows_cut = 1.0 - dec.total_query_rows / base.total_query_rows
    detail = (f"{base_tps:.1f} -> {dec_tps:.1f} tok/s ({speedup:.2f}x), "
              f"rows cut {rows_cut * 100:.1f}%")
    if speedup >= 1.3:
        _report(7, "PASS", "wall-clock speedup", detail)
    else:
        # memory-bound host: the row-count criterion (6) governs
        _report(7, "WARN", "wall-clock speedup",
                detail + " (below 1.3x, reported as informational)")


def test_criterion_08_corruption_marginal():
    _passes(8, "corruption marginal", check_corruption_marginal(
        total_steps=128, t_values=(32, 64, 96), trials=10_000, seed=8))


def test_criterion_09_sampler_invariants(tiny_weights):
    """Sampler invariants over every variant kind, under each remasking it
    takes, for 8 seeds. Seed bits pick an empty or 6-token prompt, 1 or 2
    decodes per step and 1 or 2 blocks; odd bit parity samples at
    temperature 0.8. The eight seeds hold every pair of these settings."""
    variants = [CacheVariant.parse(text) for text in (
        "none", "decode:1", "decode", "decode:4", "prefill", "pd:3",
        "greedy:1:4", "greedy:3:2", "greedy:inf:4:current")]
    assert {variant.kind for variant in variants} == set(VariantKind)
    # greedy needs the decode order that only random remasking draws
    runs = [(v, r) for v in variants for r in Remasking
            if v.kind is not VariantKind.GREEDY or r is Remasking.RANDOM]
    for seed in range(8):
        per_step, blocks = 1 + (seed >> 1 & 1), 1 + (seed >> 2 & 1)
        for variant, remasking in runs:
            cfg = SamplerConfig(
                gen_len=8, steps=8 // per_step, block_size=8 // blocks,
                remasking=remasking, sample_seed=seed, cache=variant,
                temperature=0.8 * (bin(seed).count("1") % 2))
            _, trace = generate(np.arange(1, 1 + 6 * (seed & 1)), cfg,
                                tiny_weights, timed=False)
            try:
                verify_trace_invariants(trace)
            except ValueError as exc:
                pytest.fail(f"seed {seed} {variant.describe()} "
                            f"{remasking.value}: {exc}")
            assert build_report(trace).cache_ratio >= 0.0
    _report(9, "PASS", "sampler invariants",
            "immutability, monotonicity, containment and zero residual "
            f"masks over {8 * len(runs)} traces")


def test_criterion_10_dynamics(tiny_weights, tmp_path):
    cfg = SamplerConfig(gen_len=32, steps=32, block_size=32, sample_seed=10,
                        snapshot_layer=1)
    _, trace = generate(np.arange(1, 9), cfg, tiny_weights, timed=False)
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
    if result.spike_undefined:
        _report(10, "PASS", "dynamics reproduction",
                "CSVs well-formed; reveal-spike fraction undefined: "
                f"{result.spike_undefined}")
    elif fraction >= 0.8:
        _report(10, "PASS", "dynamics reproduction",
                f"CSVs well-formed; reveal spike in {fraction * 100:.0f}% "
                "of tokens")
    else:
        _report(10, "WARN", "dynamics reproduction",
                f"CSVs well-formed; reveal spike only {fraction * 100:.0f}% "
                "(< 80%, reported, not fatal)")


def test_criterion_11_prefill_immutability(tiny_weights):
    # (prompt length, gen_len, steps, seed, variant)
    runs = [(128, 32, 32, 11, CacheVariant.parse("prefill")),
            (128, 32, 32, 11, CacheVariant.parse("pd:8")),
            (8, 12, 6, 2, CacheVariant.parse("prefill")),
            (8, 12, 6, 2, CacheVariant.parse("pd:3"))]
    for prompt_len, gen_len, steps, seed, variant in runs:
        prompt = (np.arange(prompt_len) % 100) + 1
        prefill = set(range(prompt_len))
        cfg = SamplerConfig(gen_len=gen_len, steps=steps, block_size=gen_len,
                            sample_seed=seed, cache=variant)
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
    _report(11, "PASS", "prefill immutability",
            "prefill rows byte-identical from step 0 to the final step "
            f"({len(runs)} runs of prefill and pd)")


# criterion 12's size: every head count, seeds 1200-1209 each
_C12_SIZE = dict(head_counts=(1, 4, 8), seeds=range(1200, 1210))


def test_criterion_12_rotary_reference():
    """Both rotary row sources against a float64 rotation."""
    _passes(12, "rotary reference", check_rotary_reference(**_C12_SIZE))


def test_criterion_12_fails_under_rope_fault():
    # a reversed rotation and wrong frequencies each pass criteria 1-11
    for fault in ("rope", "rope-freq"):
        with FAULTS[fault]():
            ok, detail = check_rotary_reference(**_C12_SIZE)
        assert not ok, fault
        assert "max diff" in detail, detail
