"""The package as the benchmark uses it: perfbench's set-up gate and its
span tracer, run on this checkout with the benchmark's toy model.

``perfbench/workloads.py``, ``checks.py`` and ``tracing.py`` are imported
as they are, without writing bytecode next to them.
"""

import dataclasses
import importlib
import math
import sys
from pathlib import Path
from time import perf_counter

import pytest

import dkvcache
from dkvcache.selftest import FAULTS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("workloads", "checks", "tracing")


@pytest.fixture(scope="module")
def bench():
    """perfbench's modules by name, removed from ``sys.modules`` after."""
    saved = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        modules = {name: importlib.import_module(name) for name in MODULES}
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    for module in modules.values():
        assert Path(module.__file__).parent == PERFBENCH
    yield modules
    for name in MODULES:
        sys.modules.pop(name, None)


@pytest.fixture(scope="module")
def weights(bench):
    toy = bench["workloads"].TOY_MODEL
    return dkvcache.init_weights(dkvcache.ModelConfig(**toy))


def test_setup_gate_passes(bench, weights):
    checks, workloads = bench["checks"], bench["workloads"]
    seq_len = workloads.WORKLOADS["greedy-random"].seq_len
    assert checks.reference_check(dkvcache, weights, seq_len, seed=3) == []
    assert checks.variant_gate(dkvcache, weights, seed=3) == []


def test_variant_gate_sees_layout_fault(bench, weights):
    # the byte-level audit reads the fresh and kept rows of the
    # feature-major key store; a fresh row swapped with a cached one fails it
    with FAULTS["layout"]():
        failures = bench["checks"].variant_gate(dkvcache, weights, seed=3)
    assert any("is not the row computed for it" in f for f in failures)


@pytest.mark.parametrize("name", ["decode-long", "greedy-random"])
def test_traced_generation_gives_finite_metrics(bench, weights, name):
    tracing, workloads = bench["tracing"], bench["workloads"]
    workload = dataclasses.replace(workloads.WORKLOADS[name], gen_len=32,
                                   steps=16, block_size=32)
    inp = workloads.make_inputs(workload, seed=5)[0]
    cfg = dkvcache.SamplerConfig(
        gen_len=workload.gen_len, steps=workload.steps,
        block_size=workload.block_size,
        remasking=dkvcache.Remasking(workload.remasking),
        sample_seed=inp.sample_seed,
        cache=dkvcache.CacheVariant.parse(workload.variant))
    tracer = tracing.Tracer(dkvcache)
    tracer.install()
    try:
        with tracer.span("bench.operation", 0):
            start = perf_counter()
            _, trace = dkvcache.generate(inp.prompt, cfg, weights)
            wall = perf_counter() - start
    finally:
        tracer.uninstall()
    op = {"rows": trace.total_rows, "wall": wall, "exported": 0,
          **tracing.trace_counts(trace)}
    metrics = tracing.layer_metrics(tracer, [op], workloads.TOY_MODEL)
    assert len(tracer.counts("cache_engine.commit")) == workload.steps
    assert tracer.counts("model_core.forward_partial")[1:] == (
        [workload.seq_len] * (workload.steps - 1))
    assert {k: v for k, (v, _) in metrics.items()
            if not math.isfinite(v)} == {}
