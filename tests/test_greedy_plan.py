"""Cache plans against the README definition of every variant, step by step."""

import math

import numpy as np
import pytest

from dkvcache import (
    CacheEngine,
    CacheVariant,
    Remasking,
    SamplerConfig,
    VariantKind,
    WindowCenter,
    generate,
)

PROMPT = np.arange(1, 7)
GEN_LEN = 24


def reference_plans(trace, variant):
    """Per step (compute set, cached positions, refresh flag) for any
    variant, from the README table and the trace's decoded positions alone.

    Step t refreshes when t > 0 and the variant has an interval N dividing
    t. Step 0 and refresh steps compute everything, except the prompt under
    ``pd``. Other steps: ``none`` computes everything, ``prefill``
    everything but the prompt, ``decode``/``pd`` the positions masked when
    the previous step began, and ``greedy`` the current and previous
    decodes plus a window of ``w`` around each centre (previous or current
    decodes) clipped to the generation region. Everything else is served
    from cache.
    """
    seq, prompt = trace.seq_len, trace.prompt_len
    interval = variant.refresh_interval
    decoded_at = trace.decode_step_of()
    everything = set(range(seq))
    generated = everything - set(range(prompt))
    for t, rec in enumerate(trace.records):
        refresh = t > 0 and interval is not None and t % interval == 0
        if t == 0 or variant.kind is VariantKind.NONE:
            compute = everything
        elif variant.kind is VariantKind.PREFILL:
            compute = generated
        elif refresh:
            compute = generated if variant.kind is VariantKind.PD else everything
        elif variant.kind is VariantKind.GREEDY:
            current = set(rec.decoded_positions)
            previous = set(trace.records[t - 1].decoded_positions)
            compute = current | previous
            w = variant.window_size
            for c in (previous if variant.window_center is WindowCenter.PREVIOUS
                      else current):
                lo = max(prompt, c - math.ceil(w / 2))
                hi = min(seq - 1, c + w // 2)
                compute.update(range(lo, hi + 1))
        else:
            compute = {p for p in generated if decoded_at[p] >= t - 1}
        yield tuple(sorted(compute)), tuple(sorted(everything - compute)), refresh


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("text", [
    "none", "decode", "decode:5", "decode:1", "prefill", "pd", "pd:3",
    "greedy:3:2", "greedy:8:4:current", "greedy:3:4", "greedy:inf:4",
    "greedy:inf:4:current",
])
def test_plans_match_reference(tiny_weights, text, seed):
    variant = CacheVariant.parse(text)
    remasking = (Remasking.RANDOM if variant.kind is VariantKind.GREEDY
                 else Remasking.LOW_CONFIDENCE)
    cfg = SamplerConfig(gen_len=GEN_LEN, steps=16, block_size=12,
                        remasking=remasking, sample_seed=seed, cache=variant)
    _, trace = generate(PROMPT, cfg, tiny_weights, timed=False)
    expected = list(reference_plans(trace, variant))
    assert len(expected) == len(trace.records)
    for rec, (compute, cached, refresh) in zip(trace.records, expected):
        assert tuple(rec.compute_set.tolist()) == compute, f"step {rec.step}"
        assert tuple(rec.cached_positions.tolist()) == cached, f"step {rec.step}"
        assert rec.refresh == refresh, f"step {rec.step}"


def test_greedy_plans_each_step_once(tiny_weights, monkeypatch):
    """Each ``plan_step`` decides what its commit keeps exactly once."""
    kept_per_step = []
    real_kept, real_plan = CacheEngine._kept, CacheEngine.plan_step

    def kept(self, *args, **kwargs):
        kept_per_step[-1] += 1
        return real_kept(self, *args, **kwargs)

    def plan_step(self, **kwargs):
        kept_per_step.append(0)
        return real_plan(self, **kwargs)

    monkeypatch.setattr(CacheEngine, "_kept", kept)
    monkeypatch.setattr(CacheEngine, "plan_step", plan_step)
    steps = 12
    cfg = SamplerConfig(gen_len=GEN_LEN, steps=steps, block_size=GEN_LEN,
                        remasking=Remasking.RANDOM, sample_seed=3,
                        cache=CacheVariant.parse("greedy:4:2"))
    generate(PROMPT, cfg, tiny_weights, timed=False)
    assert kept_per_step == [1] * steps
