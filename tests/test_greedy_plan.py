"""Greedy cache plans against the README definition, step by step."""

import math

import numpy as np
import pytest

import dkvcache.cache_engine as cache_engine
from dkvcache import CacheVariant, Remasking, SamplerConfig, WindowCenter, generate

PROMPT = np.arange(1, 7)
GEN_LEN = 24


def reference_plan(trace, interval, window, center):
    """Per step (compute set, cached positions) from the README: step 0 and
    refresh steps compute everything; other steps compute the current and
    previous decodes plus a window of ``window`` around each center
    (previous or current decodes) clipped to the generation region;
    everything else is served from cache."""
    seq, prompt = trace.seq_len, trace.prompt_len
    for t, rec in enumerate(trace.records):
        if t == 0 or (interval is not None and t % interval == 0):
            compute = set(range(seq))
        else:
            current = set(rec.decoded_positions)
            previous = set(trace.records[t - 1].decoded_positions)
            centers = previous if center is WindowCenter.PREVIOUS else current
            compute = current | previous
            for c in centers:
                lo = max(prompt, c - math.ceil(window / 2))
                hi = min(seq - 1, c + window // 2)
                compute.update(range(lo, hi + 1))
        yield tuple(sorted(compute)), tuple(sorted(set(range(seq)) - compute))


@pytest.mark.parametrize("interval,center", [
    (3, WindowCenter.PREVIOUS),
    (None, WindowCenter.PREVIOUS),
    (None, WindowCenter.CURRENT),
])
def test_greedy_plans_match_reference(tiny_weights, interval, center):
    window = 4
    cfg = SamplerConfig(gen_len=GEN_LEN, steps=12, block_size=12,
                        remasking=Remasking.RANDOM, sample_seed=7,
                        cache=CacheVariant.greedy(interval, window, center))
    _, trace = generate(PROMPT, cfg, tiny_weights, timed=False)
    expected = list(reference_plan(trace, interval, window, center))
    for rec, (compute, cached) in zip(trace.records, expected):
        assert rec.compute_set == compute, f"step {rec.step}"
        assert rec.cached_positions == cached, f"step {rec.step}"


def test_greedy_plans_each_step_once(tiny_weights, monkeypatch):
    calls = []
    real = cache_engine.plan_compute_set

    def counted(*args, **kwargs):
        calls.append(kwargs["step"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_engine, "plan_compute_set", counted)
    steps = 12
    cfg = SamplerConfig(gen_len=GEN_LEN, steps=steps, block_size=GEN_LEN,
                        remasking=Remasking.RANDOM, sample_seed=3,
                        cache=CacheVariant.greedy(4, 2))
    generate(PROMPT, cfg, tiny_weights, timed=False)
    assert sorted(calls) == list(range(steps))
