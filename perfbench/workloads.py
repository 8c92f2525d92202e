"""Benchmark workloads, the set-up gate's variant runs, and seeded inputs.

Every workload runs the acceptance suite's toy model as a closed loop with
one caller: one generation under one cache variant per operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The acceptance suite's toy model (tests/conftest.py, toy_config).
TOY_MODEL = dict(n_layers=4, n_heads=4, d_model=128, d_head=32, d_ff=256,
                 vocab_size=512, mask_token_id=511, max_positions=2048,
                 weight_seed=7)

# Distinct inputs drawn at set-up; operations cycle through them.
INPUT_POOL = 64


@dataclass(frozen=True)
class Workload:
    name: str
    prompt_len: int
    gen_len: int
    steps: int
    block_size: int
    remasking: str
    variant: str

    @property
    def seq_len(self) -> int:
        return self.prompt_len + self.gen_len


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("decode-long", 16, 512, 256, 512, "low_confidence", "decode:8"),
    Workload("greedy-random", 16, 512, 256, 512, "random", "greedy:8:4"),
)}

# Every cache variant, run short on one input at set-up and checked there:
# none and decode:1 must agree byte for byte.
GATE = tuple(Workload(f"gate {variant}", 16, 32, 16, 16, remasking, variant)
             for variant, remasking in (
                 ("none", "low_confidence"), ("decode:1", "low_confidence"),
                 ("decode:8", "low_confidence"), ("prefill", "low_confidence"),
                 ("pd:8", "low_confidence"), ("greedy:8:4", "random")))


@dataclass(frozen=True)
class UnitInput:
    prompt: np.ndarray
    sample_seed: int


def make_inputs(workload: Workload, seed: int) -> list[UnitInput]:
    """The run's input pool; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    mask_id = TOY_MODEL["mask_token_id"]
    return [UnitInput(prompt=rng.integers(0, mask_id, size=workload.prompt_len),
                      sample_seed=int(rng.integers(0, 2**31 - 1)))
            for _ in range(INPUT_POOL)]


def parse_variant(text: str) -> tuple[str, int | None, int]:
    """(kind, refresh interval, window) from ``kind[:N[:w]]``.

    Parsed here rather than by the package, so the closed-form row checks
    do not share the engine's own reading of the variant.
    """
    parts = text.split(":")
    interval = int(parts[1]) if len(parts) > 1 else None
    window = int(parts[2]) if len(parts) > 2 else 4
    return parts[0], interval, window
