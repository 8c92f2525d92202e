"""Embedded fast self-test: small oracle-equivalence and property checks.

Each criterion is independent and prints one PASS/FAIL line. The whole
suite targets a few seconds on one CPU core. ``fault_inject`` exists for
mutation testing: injecting a corrupted reorder index must make the
layout-soundness criterion fail.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .cache_engine import (
    CacheEngine,
    CacheVariant,
    ComputePlan,
    LayoutError,
    build_layout,
)
from .model_core import KVSlab, ModelConfig, forward_full, forward_partial, init_weights
from .sampler import (
    NoiseSchedule,
    Remasking,
    SamplerConfig,
    corrupt,
    generate,
    tokens_per_step_schedule,
)
from .analysis import verify_trace_invariants

__all__ = ["run_selftest", "validate_plan"]

_TINY = ModelConfig(
    n_layers=2, n_heads=2, d_model=64, d_head=32, d_ff=128,
    vocab_size=128, mask_token_id=127, max_positions=256, weight_seed=11,
)


def _check_refresh_degeneracy() -> tuple[bool, str]:
    weights = init_weights(_TINY)
    for seed in (0, 1, 2):
        prompt = np.arange(1, 9) % 100
        base_cfg = dict(gen_len=16, steps=16, block_size=8,
                        remasking=Remasking.RANDOM, sample_seed=seed)
        plain, _ = generate(prompt, SamplerConfig(
            **base_cfg, cache=CacheVariant.none()), weights, timed=False)
        cached, _ = generate(prompt, SamplerConfig(
            **base_cfg, cache=CacheVariant.decode(1)), weights, timed=False)
        if not np.array_equal(plain, cached):
            return False, f"seed {seed}: sequences differ"
    return True, "3 seeds bit-identical"


def _check_partial_forward_oracle() -> tuple[bool, str]:
    weights = init_weights(_TINY)
    rng = np.random.default_rng(5)
    for _ in range(5):
        seq = int(rng.integers(8, 25))
        tokens = rng.integers(0, _TINY.vocab_size - 1, size=seq)
        full = forward_full(tokens, weights)
        n_cached = int(rng.integers(1, seq))
        cached_pos = np.sort(rng.choice(seq, size=n_cached, replace=False))
        compute = np.setdiff1d(np.arange(seq), cached_pos)
        cache = [KVSlab(layer=i,
                        keys=slab.keys[cached_pos],
                        values=slab.values[cached_pos],
                        row_positions=cached_pos.copy())
                 for i, slab in enumerate(full.fresh_kv)]
        part = forward_partial(tokens, compute, cache, weights)
        diff = np.abs(part.logits - full.logits[compute]).max()
        if diff > 1e-5:
            return False, f"max logit diff {diff:.2e} > 1e-5"
    return True, "partial matches full within 1e-5"


def _check_logit_rows() -> tuple[bool, str]:
    weights = init_weights(_TINY)
    rng = np.random.default_rng(17)
    seq = 24
    for n_rows in (1, 2, 7):
        tokens = rng.integers(0, _TINY.vocab_size - 1, size=seq)
        full = forward_full(tokens, weights)
        cached_pos = np.sort(rng.choice(seq, size=8, replace=False))
        compute = rng.permutation(np.setdiff1d(np.arange(seq), cached_pos))
        cache = [KVSlab(layer=i, keys=slab.keys[cached_pos],
                        values=slab.values[cached_pos], row_positions=cached_pos)
                 for i, slab in enumerate(full.fresh_kv)]
        every = forward_partial(tokens, compute, cache, weights)
        rows = rng.choice(len(compute), size=n_rows, replace=False)
        part = forward_partial(tokens, compute, cache, weights, logit_rows=rows)
        if part.logits.shape != (n_rows, _TINY.vocab_size):
            return False, (f"{n_rows} logit rows gave logits of shape "
                           f"{part.logits.shape}")
        diff = np.abs(part.logits - every.logits[rows]).max()
        if diff > 1e-5:
            return False, f"max logit diff {diff:.2e} > 1e-5"
        if any(a.keys.tobytes() != b.keys.tobytes()
               or a.values.tobytes() != b.values.tobytes()
               for a, b in zip(part.kv, every.kv)):
            return False, f"{n_rows} logit rows: K/V differ from the all-rows pass"
    return True, "logits within 1e-5 of the all-rows pass, K/V byte-equal"


def _naive_next_cache(cached: KVSlab, fresh: KVSlab, next_positions, seq_len, width):
    buf_k = np.zeros((seq_len, width), dtype=np.float32)
    buf_v = np.zeros((seq_len, width), dtype=np.float32)
    for slab in (cached, fresh):
        for row, pos in enumerate(slab.row_positions):
            buf_k[pos] = slab.keys[row]
            buf_v[pos] = slab.values[row]
    idx = np.asarray(next_positions, dtype=np.int64)
    return buf_k[idx], buf_v[idx]


def _check_commit_gather_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    width = 8
    for _ in range(20):
        seq = int(rng.integers(4, 33))
        n_cached = int(rng.integers(0, seq))
        cached_pos = np.sort(rng.choice(seq, size=n_cached, replace=False))
        compute = np.setdiff1d(np.arange(seq), cached_pos)
        masked_next = rng.choice(compute, size=int(rng.integers(0, len(compute))),
                                 replace=False)
        next_pos = np.sort(np.setdiff1d(np.arange(seq), masked_next))
        cached = KVSlab(0, rng.random((n_cached, width), dtype=np.float32),
                        rng.random((n_cached, width), dtype=np.float32),
                        cached_pos.astype(np.int64))
        fresh = KVSlab(0, rng.random((len(compute), width), dtype=np.float32),
                       rng.random((len(compute), width), dtype=np.float32),
                       compute.astype(np.int64))
        plan = build_layout(compute.tolist(), cached_pos.tolist(),
                            next_pos.tolist(), seq)
        engine = CacheEngine(CacheVariant.decode(), seq_len=seq)
        engine.commit(plan, [KVSlab(
            0, np.concatenate([cached.keys, fresh.keys]),
            np.concatenate([cached.values, fresh.values]), plan.layout)])
        nxt = engine.slabs[0]
        ref_k, ref_v = _naive_next_cache(cached, fresh, next_pos, seq, width)
        if not (np.array_equal(nxt.keys, ref_k)
                and np.array_equal(nxt.values, ref_v)
                and np.array_equal(nxt.row_positions, next_pos)):
            return False, "reorder path diverged from naive gather/scatter"
    return True, "20 random cases exactly equal"


def validate_plan(plan: ComputePlan, seq_len: int) -> None:
    """Raise ``LayoutError`` unless the layout is [cached ; compute], a
    permutation of ``range(seq_len)``, and the reorder index selects the
    next cached positions from it."""
    layout, index = plan.layout, plan.reorder_index
    if not np.array_equal(layout, np.concatenate([plan.cached_positions,
                                                  plan.compute_set])):
        problem = "layout is not [cached ; compute]"
    elif not np.array_equal(np.sort(layout), np.arange(seq_len)):
        problem = "layout is not a permutation of the sequence positions"
    elif index.size and (index.min() < 0 or index.max() >= len(layout)):
        problem = "reorder index out of bounds"
    elif not np.array_equal(layout[index], plan.next_cached_positions):
        problem = "reorder index does not select the next cached set"
    else:
        return
    raise LayoutError(f"layout soundness violated: {problem}")


def _check_layout_soundness(fault_inject: str | None) -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    injected = False
    for _ in range(20):
        seq = int(rng.integers(4, 33))
        n_cached = int(rng.integers(0, seq))
        cached_pos = np.sort(rng.choice(seq, size=n_cached, replace=False))
        compute = np.setdiff1d(np.arange(seq), cached_pos)
        keep = rng.choice(seq, size=int(rng.integers(0, seq)), replace=False)
        next_pos = np.sort(keep)
        plan = build_layout(compute.tolist(), cached_pos.tolist(),
                            next_pos.tolist(), seq)
        if (fault_inject == "layout" and not injected
                and plan.reorder_index.size):
            injected = True
            corrupted = plan.reorder_index.copy()
            corrupted[0] = (corrupted[0] + 1) % len(plan.layout)
            plan = dataclasses.replace(plan, reorder_index=corrupted)
        try:
            validate_plan(plan, seq)
        except LayoutError as exc:
            return False, str(exc)
    return True, "20 random plans validated"


def _check_corruption_marginal() -> tuple[bool, str]:
    schedule = NoiseSchedule(total_steps=64)
    rng = np.random.default_rng(3)
    x0 = np.arange(100) % 120
    trials, length = 2000, 100
    masked = 0
    for _ in range(trials):
        masked += int((corrupt(x0, 32, schedule, rng, 126) == 126).sum())
    rate = masked / (trials * length)
    sigma = (0.25 / (trials * length)) ** 0.5
    ok = abs(rate - 0.5) <= 3 * sigma
    return ok, f"rate {rate:.4f} vs 0.5 (3 sigma = {3 * sigma:.4f})"


def _check_step_schedule() -> tuple[bool, str]:
    cases = [
        ((128, 128, 64), [1] * 128),
        ((256, 128, 256), [2] * 128),
        ((10, 4, 10), [3, 3, 2, 2]),
    ]
    for (gen, steps, block), expected in cases:
        got = list(tokens_per_step_schedule(gen, steps, block).counts)
        if got != expected:
            return False, f"L={gen},T={steps},B={block}: got {got[:6]}..."
    return True, "per-step counts match enumeration"


def _check_sampler_invariants() -> tuple[bool, str]:
    weights = init_weights(_TINY)
    _, trace = generate(np.arange(1, 7), SamplerConfig(
        gen_len=12, steps=6, block_size=6, remasking=Remasking.LOW_CONFIDENCE,
        sample_seed=9, cache=CacheVariant.decode(2)), weights, timed=False)
    try:
        verify_trace_invariants(trace)
    except ValueError as exc:
        return False, str(exc)
    return True, "immutability, monotonicity and containment hold"


def run_selftest(fault_inject: str | None = None, out=print) -> bool:
    checks = [
        ("oracle equivalence (refresh degeneracy)", _check_refresh_degeneracy),
        ("partial forward oracle", _check_partial_forward_oracle),
        ("logit rows", _check_logit_rows),
        ("commit gather oracle", _check_commit_gather_oracle),
        ("layout soundness",
         lambda: _check_layout_soundness(fault_inject)),
        ("corruption marginal", _check_corruption_marginal),
        ("step schedule audit", _check_step_schedule),
        ("sampler invariants", _check_sampler_invariants),
    ]
    all_ok = True
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        out(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
