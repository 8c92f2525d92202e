"""Embedded fast self-test: one body per oracle, sized by its caller.

Each ``check_*`` function takes its size (cases, seeds, head counts,
sequence range) and returns ``(ok, detail)``. ``run_selftest`` calls
every check small and prints one PASS/FAIL line per check; acceptance
criteria 1, 2, 3, 8 and 12 call the same checks at acceptance size.
``check_step_schedule`` takes no size: it holds the package's one copy
of the enumerated per-step decode counts, and the unit tests call it
too. ``FAULTS`` maps each ``--fault-inject`` name to a context manager
that breaks the engine for the duration of the run: ``layout`` makes
every pass that serves a cache swap a fresh row with a cached one in the
store, which only the kept rows oracle sees, since attention reads every
row either way; ``rope`` reverses every rotation and ``rope-freq`` builds
the rotary rows with twice the base; only the rotary reference sees
either.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
from unittest import mock

import numpy as np

from . import model_core
from .cache_engine import CacheEngine, CacheVariant, ComputePlan
from .model_core import (ForwardResult, KVSlab, ModelConfig, ModelWeights,
                         forward_full, forward_partial, init_weights,
                         rope_rotate)
from .sampler import (NoiseSchedule, Remasking, SamplerConfig, corrupt,
                      generate, tokens_per_step_schedule)
from .analysis import verify_trace_invariants

__all__ = ["FAULTS", "check_corruption_marginal", "check_kept_rows",
           "check_partial_forward", "check_refresh_degeneracy",
           "check_rotary_reference", "check_step_schedule",
           "naive_next_cache", "run_selftest", "served_cache"]

Check = tuple[bool, str]

# largest logit difference a partial pass may show against the full pass
LOGIT_TOL = 1e-5

_TINY = ModelConfig(
    n_layers=2, n_heads=2, d_model=64, d_head=32, d_ff=128,
    vocab_size=128, mask_token_id=127, max_positions=256, weight_seed=11,
)


def check_refresh_degeneracy(
    weights: ModelWeights, *, seeds: int, prompt: np.ndarray, gen_len: int,
    steps: int, block_size: int, first_seed: int = 0,
) -> Check:
    """``decode:1``, and under random remasking ``greedy:1`` too, against
    ``none``: the same sequence and, step by step, the same decoded
    positions and ids, bit for bit.

    Seed ``i`` samples with ``first_seed + i``. The first half of the
    seeds remask randomly on ``weights``, where every variant decodes the
    one order drawn before step 0; the second half remask by low
    confidence, which greedy does not take, each on weights re-seeded to
    ``100 + i``.
    """
    for i in range(seeds):
        remasking, case_weights = Remasking.RANDOM, weights
        variants = tuple(map(CacheVariant.parse, ("decode:1", "greedy:1")))
        if i >= seeds // 2:
            remasking, variants = Remasking.LOW_CONFIDENCE, variants[:1]
            case_weights = init_weights(
                dataclasses.replace(weights.config, weight_seed=100 + i))
        runs = []
        for variant in (CacheVariant.parse("none"), *variants):
            cfg = SamplerConfig(gen_len=gen_len, steps=steps,
                                block_size=block_size, remasking=remasking,
                                sample_seed=first_seed + i, cache=variant)
            tokens, trace = generate(prompt, cfg, case_weights, timed=False)
            runs.append((tokens, [(r.decoded_positions, r.decoded_ids)
                                  for r in trace.records]))
        (plain, plain_steps), *cached_runs = runs
        for variant, (cached, cached_steps) in zip(variants, cached_runs):
            label = f"seed {first_seed + i} {variant.describe()}"
            if not np.array_equal(plain, cached):
                return False, f"{label}: sequences differ"
            if plain_steps != cached_steps:
                return False, (f"{label}: per-step decoded positions or ids "
                               "differ")
    return True, f"{seeds}/{seeds} seeds bit-identical"


def served_cache(full: ForwardResult, positions) -> list[KVSlab]:
    """``full``'s K/V rows at ``positions``, one slab per layer: a cache
    a partial pass must treat exactly like rows it computed itself."""
    positions = np.asarray(positions, dtype=np.int64)
    return [KVSlab(layer=i, keys=slab.keys[positions],
                   values=slab.values[positions], row_positions=positions)
            for i, slab in enumerate(full.fresh_kv)]


def _draw_split(rng: np.random.Generator, seq_range: tuple[int, int],
                cached: bool = True):
    """Random tokens (ids below 100) and a random cached/compute split."""
    seq = int(rng.integers(*seq_range))
    tokens = rng.integers(0, 100, size=seq)
    n_cached = int(rng.integers(0, seq)) if cached else 0
    cached_pos = np.sort(rng.choice(seq, size=n_cached, replace=False))
    return tokens, cached_pos, np.setdiff1d(np.arange(seq), cached_pos)


def _served_pass(weights, tokens, cached_pos, compute):
    """The partial pass over ``compute`` served ``forward_full``'s rows at
    ``cached_pos``: (cache, result, max logit drift from the full pass)."""
    full = forward_full(tokens, weights)
    cache = served_cache(full, cached_pos)
    part = forward_partial(tokens, compute, cache, weights)
    return cache, part, float(np.abs(part.logits - full.logits[compute]).max())


def check_partial_forward(
    weights: ModelWeights, *, cases: int, seq_range: tuple[int, int],
    seed: int, cached: bool = True, logit_rows: tuple[int, ...] = (),
) -> Check:
    """Serve a random subset of ``forward_full``'s K/V as the cache and
    compute the rest in a shuffled order: logits within ``LOGIT_TOL`` of
    the full pass. ``cached=False`` serves nothing, so only the row order
    changes. Each entry of ``logit_rows`` asks the same pass for that many
    random logit rows (at most all of them): logits within ``LOGIT_TOL``
    of the all-rows pass, and K/V byte-equal to it.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        tokens, cached_pos, compute = _draw_split(rng, seq_range, cached)
        compute = rng.permutation(compute)
        cache, every, drift = _served_pass(weights, tokens, cached_pos, compute)
        worst = max(worst, drift)
        for n_rows in logit_rows:
            rows = rng.choice(len(compute), size=min(n_rows, len(compute)),
                              replace=False)
            part = forward_partial(tokens, compute, cache, weights,
                                   logit_rows=rows)
            if part.logits.shape != (len(rows), weights.config.vocab_size):
                return False, (f"case {case}: {len(rows)} logit rows gave "
                               f"logits of shape {part.logits.shape}")
            worst = max(worst, float(np.abs(part.logits
                                            - every.logits[rows]).max()))
            if any(a.keys.tobytes() != b.keys.tobytes()
                    or a.values.tobytes() != b.values.tobytes()
                    or not np.array_equal(a.row_positions, b.row_positions)
                    for a, b in zip(part.kv, every.kv)):
                return False, (f"case {case}: {len(rows)} logit rows: K/V "
                               "differ from the all-rows pass")
        if worst > LOGIT_TOL:
            return False, (f"case {case}: max logit diff {worst:.2e} > "
                           f"{LOGIT_TOL:g}")
    return True, f"{cases} cases within {worst:.1e}"


def naive_next_cache(slabs: list[KVSlab], next_positions, seq_len: int):
    """The next cache by definition: scatter ``slabs`` into natural
    position order, then gather ``next_positions``. Returns (keys, values)."""
    width = slabs[0].keys.shape[1]
    keys = np.zeros((seq_len, width), dtype=np.float32)
    values = np.zeros((seq_len, width), dtype=np.float32)
    for slab in slabs:
        keys[slab.row_positions] = slab.keys
        values[slab.row_positions] = slab.values
    return keys[next_positions], values[next_positions]


def check_kept_rows(
    weights: ModelWeights, *, cases: int, seq_range: tuple[int, int],
    seed: int,
) -> Check:
    """Run the served-subset partial pass, recording its fresh rows as
    they are handed to ``model_core._write_fresh``, then commit a random
    next cached set through a ``CacheEngine``. The engine must keep the
    pass's store arrays, not copies, with the next positions, and every
    layer's rows at them must be byte-equal to ``naive_next_cache`` of the
    served and the recorded rows: the rows of their last computation. The
    logits must be within ``LOGIT_TOL`` of the full pass.
    """
    rng = np.random.default_rng(seed)
    worst, written = 0.0, []
    write = model_core._write_fresh  # the one a fault patched, if any

    def recording(store, positions, keys, values):
        written.append(KVSlab(store.layer, keys.copy(), values.copy(),
                              positions))
        write(store, positions, keys, values)

    for case in range(cases):
        tokens, cached_pos, compute = _draw_split(rng, seq_range)
        written.clear()
        with mock.patch.object(model_core, "_write_fresh", recording):
            cache, part, drift = _served_pass(weights, tokens, cached_pos,
                                              compute)
        fresh = written[-weights.config.n_layers:]  # the partial pass's
        worst = max(worst, drift)
        seq = len(tokens)
        next_pos = np.sort(rng.choice(seq, size=int(rng.integers(0, seq + 1)),
                                      replace=False))
        engine = CacheEngine(CacheVariant.parse("decode"), seq_len=seq)
        engine.commit(ComputePlan(compute, cached_pos, next_pos, False), part.kv)
        for layer, slab in enumerate(engine.slabs):
            keys, values = naive_next_cache([cache[layer], fresh[layer]],
                                            next_pos, seq)
            if slab.keys is not part.kv[layer].keys or (
                    slab.values is not part.kv[layer].values):
                return False, f"case {case}, layer {layer}: the commit copied"
            if not (slab.keys[next_pos].tobytes() == keys.tobytes()
                    and slab.values[next_pos].tobytes() == values.tobytes()
                    and np.array_equal(slab.row_positions, next_pos)):
                return False, (f"case {case}, layer {layer}: kept K/V "
                               "differ from the naive next cache")
    if worst > LOGIT_TOL:
        return False, f"max logit diff {worst:.2e} > {LOGIT_TOL:g}"
    return True, f"{cases} cases, K/V exact, logits within {worst:.1e}"


def check_rotary_reference(*, head_counts: tuple[int, ...],
                           seeds: range) -> Check:
    """For each head count and seed: ``rope_rotate`` of a non-contiguous
    view, as the [q | k] columns of a qkv block are, against a float64
    rotation of each (2i, 2i+1) pair by position * base**(-2i/d_head),
    with the rows of both sources: ``rope_rows`` of the positions, and
    ``_rope_table``'s rows at them. Each must leave the input as it was
    and return C-order float32 within 1e-6 of the rotation. Both are
    looked up on the module, so a fault that patches ``rope_rows`` is
    seen by both."""
    d_head, max_positions, base = 16, 2048, 10000.0
    table = model_core._rope_table(base, d_head, max_positions)
    freqs = base ** (-np.arange(0, d_head, 2) / d_head)
    worst = 0.0
    for n_heads, seed in itertools.product(head_counts, seeds):
        rng = np.random.default_rng(seed)
        width = n_heads * d_head
        positions = rng.integers(0, max_positions, size=12)
        block = rng.standard_normal((12, 3 * width)).astype(np.float32)
        before, states = block.copy(), block[:, :width]
        x = states.astype(np.float64).reshape(12, n_heads, d_head // 2, 2)
        theta = positions[:, None] * freqs
        cos, sin = np.cos(theta)[:, None, :], np.sin(theta)[:, None, :]
        want = np.stack([x[..., 0] * cos - x[..., 1] * sin,
                         x[..., 0] * sin + x[..., 1] * cos], axis=-1)
        for source, rows in (
                ("rope_rows", model_core.rope_rows(positions, base, d_head)),
                ("table", table[positions])):
            label = f"n_heads {n_heads}, seed {seed}, {source}"
            got = rope_rotate(states, rows)
            if got.dtype != np.float32 or not got.flags.c_contiguous:
                return False, f"{label}: not C-order float32"
            if block.tobytes() != before.tobytes():
                return False, f"{label}: the input was changed"
            worst = max(worst, float(np.abs(got - want.reshape(12, -1)).max()))
            if not worst <= 1e-6:
                return False, f"{label}: max diff {worst:.2e} > 1e-06"
    return True, f"both sources within {worst:.1e} of the float64 rotation"


def check_corruption_marginal(
    *, total_steps: int, t_values: tuple[int, ...], trials: int, seed: int,
) -> Check:
    """Monte Carlo mask rate of ``corrupt`` over ``trials`` draws of 100
    tokens at each t, against 1 - alpha_bar(t), within 3 sigma."""
    schedule = NoiseSchedule(total_steps=total_steps)
    rng = np.random.default_rng(seed)
    x0 = (np.arange(100) % 120) + 1
    mask_id = 126
    details = []
    for t in t_values:
        expected = 1.0 - schedule.alpha_bar(t)
        masked = sum(int((corrupt(x0, t, schedule, rng, mask_id) == mask_id).sum())
                     for _ in range(trials))
        rate = masked / (trials * x0.size)
        sigma = np.sqrt(expected * (1 - expected) / (trials * x0.size))
        label = f"t/T={t / total_steps}"
        if abs(rate - expected) > 3 * sigma:
            return False, (f"{label}: rate {rate:.4f} vs {expected} "
                           f"(3 sigma = {3 * sigma:.4f})")
        details.append(f"{label}: {rate:.4f}")
    return True, "within 3 sigma at " + ", ".join(details)


def check_step_schedule() -> Check:
    """``tokens_per_step_schedule``'s per-step counts against three
    enumerated cases: one token per step over two blocks, two per step in
    one block, and a largest-remainder split of 10 tokens over 4 steps."""
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


def _check_sampler_invariants(weights: ModelWeights) -> Check:
    _, trace = generate(np.arange(1, 7), SamplerConfig(
        gen_len=12, steps=6, block_size=6, remasking=Remasking.LOW_CONFIDENCE,
        sample_seed=9, cache=CacheVariant.parse("decode:2")), weights,
        timed=False)
    try:
        verify_trace_invariants(trace)
    except ValueError as exc:
        return False, str(exc)
    return True, "immutability, monotonicity and containment hold"


def _swapped_write():
    """After each layer's write, swap the first fresh row with the first
    cached row, if any: every row is still in the store once, so attention
    within the pass is unchanged, but two positions cache the wrong rows."""
    write = model_core._write_fresh

    def swapped(store, positions, keys, values):
        write(store, positions, keys, values)
        cached = np.setdiff1d(np.arange(len(store.keys)), positions)
        if cached.size and len(positions):
            pair = [positions[0], cached[0]]
            store.keys[pair] = store.keys[pair[::-1]]
            store.values[pair] = store.values[pair[::-1]]

    return mock.patch.object(model_core, "_write_fresh", swapped)


@contextlib.contextmanager
def _rope_fault(wrong_rows):
    """Build every rotary row as ``wrong_rows(real_rope_rows, positions,
    base, d_head)`` for the run, the cached table cleared on entry and on
    exit so the engine's rows come from ``wrong_rows`` too."""
    real = model_core.rope_rows
    model_core._rope_table.cache_clear()
    try:
        with mock.patch.object(model_core, "rope_rows",
                               functools.partial(wrong_rows, real)):
            yield
    finally:
        model_core._rope_table.cache_clear()


# --fault-inject name -> a context manager that breaks the engine
FAULTS = {"layout": _swapped_write,
          "rope": functools.partial(  # each rotation turns the wrong way
              _rope_fault, lambda real, *args: np.conj(real(*args))),
          "rope-freq": functools.partial(  # twice the base
              _rope_fault, lambda real, pos, base, d: real(pos, 2 * base, d))}


def run_selftest(fault_inject: str | None = None) -> bool:
    """Run every check small, one PASS/FAIL line each, under the named
    fault if one is given; True when every check passes."""
    weights = init_weights(_TINY)
    checks = [
        ("oracle equivalence (refresh degeneracy)",
         lambda: check_refresh_degeneracy(
             weights, seeds=4, prompt=np.arange(1, 9), gen_len=16, steps=8,
             block_size=8)),
        ("partial forward oracle",
         lambda: check_partial_forward(weights, cases=5, seq_range=(8, 25),
                                       seed=5, logit_rows=(1, 2, 7))),
        ("kept rows oracle",
         lambda: check_kept_rows(weights, cases=20, seq_range=(4, 33),
                                 seed=7)),
        ("corruption marginal",
         lambda: check_corruption_marginal(total_steps=64, t_values=(32,),
                                           trials=2000, seed=3)),
        ("step schedule audit", check_step_schedule),
        ("rotary reference",
         lambda: check_rotary_reference(head_counts=(4,),
                                        seeds=range(123, 124))),
        ("sampler invariants", lambda: _check_sampler_invariants(weights)),
    ]
    all_ok = True
    with FAULTS[fault_inject]() if fault_inject else contextlib.nullcontext():
        for name, fn in checks:
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            all_ok &= ok
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
