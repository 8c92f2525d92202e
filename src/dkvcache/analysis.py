"""Metrics over completed runs: ``build_report``, the one place a trace
becomes run-level numbers (cache ratio, tokens/s, row and MAC totals),
and the key/value representation-dynamics measurements.

All functions here are pure over finished traces, so independent runs can
be analyzed concurrently.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .trace import RunReport, StepTrace

__all__ = [
    "mac_per_row",
    "build_report",
    "kv_dynamics",
    "DynamicsResult",
    "TokenStat",
    "write_dynamics_csvs",
    "verify_trace_invariants",
]


def mac_per_row(seq_len: int, dims: dict) -> tuple[int, int]:
    """Multiply-accumulate estimates ``(kv, logit)`` for one row.

    Every computed row costs ``kv``: the Q/K/V projections of all layers,
    plus, in every layer but the last, the QK^T and AV attention products
    (against ``seq_len`` key rows), the O projection and the two
    feed-forward matmuls. A logit row costs ``logit`` on top: the last
    layer's attention products, O projection and feed-forward, and the
    output head. Norms, rotary rotation and activations are ignored as
    non-dominant.
    """
    d, f = dims["d_model"], dims["d_ff"]
    tail = d * d + 2 * d * f + 2 * seq_len * d
    kv = dims["n_layers"] * 3 * d * d + (dims["n_layers"] - 1) * tail
    return kv, tail + d * dims["vocab_size"]


def build_report(trace: StepTrace) -> RunReport:
    """Run-level numbers of one trace. ``cache_ratio`` is the mean over
    steps of (seq_len - rows_computed) / seq_len, so the baseline scores
    0; row totals are exact, and each row kind costs one ``mac_per_row``
    figure, as every row attends over ``seq_len`` keys. ``tokens_per_second``
    is None unless every step was timed. Raises ValueError on an empty
    trace or zero elapsed time."""
    if not trace.records:
        raise ValueError("empty trace")
    s = trace.seq_len
    rows = [rec.rows_computed for rec in trace.records]
    logit_rows = sum(rec.logit_rows for rec in trace.records)
    millis = [rec.millis for rec in trace.records]
    tokens_per_second = None
    if None not in millis:
        total = float(sum(millis))
        if total <= 0:
            raise ValueError("zero elapsed time")
        tokens_per_second = trace.gen_len / (total / 1000.0)
    kv, logit = mac_per_row(s, trace.model_dims)
    return RunReport(
        variant=trace.variant,
        cache_ratio=float(np.mean([(s - r) / s for r in rows])),
        tokens_per_second=tokens_per_second,
        total_query_rows=sum(rows),
        total_logit_rows=logit_rows,
        total_macs=sum(rows) * kv + logit_rows * logit,
        per_step_max_rows=max(rows),
        gen_len=trace.gen_len,
        seq_len=s,
        steps=trace.total_steps,
    )


@dataclass
class TokenStat:
    position: int
    decode_step: int
    pre_mean: float
    post_mean: float
    top2_max_steps: tuple[int, ...]
    top2_min_steps: tuple[int, ...]
    reveal_change: float
    median_change: float

    @property
    def max_change_step(self) -> int:
        return self.top2_max_steps[0]

    @property
    def spike(self) -> bool | None:
        """Whether the change at the reveal exceeds the token's median
        change; None where that is undefined: a reveal at the final step
        has no later snapshot (``reveal_change`` is NaN), and with one
        transition (one top-2 step) the reveal change is the median."""
        if math.isnan(self.reveal_change) or len(self.top2_max_steps) < 2:
            return None
        return self.reveal_change > self.median_change


@dataclass
class DynamicsResult:
    """Step-pairwise distance matrices plus per-token change statistics.

    Distances use the full concatenated head vector per row; every matrix
    entry is computed once per unordered pair and mirrored, so the output
    is exactly symmetric. Change step ``j`` labels the transition whose
    altered inputs entered step ``j`` (snapshot ``j-1`` -> ``j``).
    """

    key_euclidean: np.ndarray
    key_cosine: np.ndarray
    value_euclidean: np.ndarray
    value_cosine: np.ndarray
    token_stats: list[TokenStat]

    def _observed(self) -> list[TokenStat]:
        """Tokens revealed before the final step: their reveal change is
        observed."""
        final = self.key_euclidean.shape[0] - 1
        return [s for s in self.token_stats if s.decode_step < final]

    @property
    def spike_undefined(self) -> str | None:
        """Why ``spike_fraction`` is NaN, or None when it is defined."""
        if self.key_euclidean.shape[0] == 2:
            return "one transition, so each token's reveal change is its median"
        if not self._observed():
            return "no token revealed before the final step"
        return None

    @property
    def spike_fraction(self) -> float:
        """The fraction of observed tokens with a reveal spike, NaN where
        ``spike_undefined`` gives a reason."""
        if self.spike_undefined:
            return float("nan")
        observed = self._observed()
        return sum(1 for s in observed if s.spike) / len(observed)


def _pairwise(snapshots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    steps = snapshots.shape[0]
    euclid = np.zeros((steps, steps), dtype=np.float64)
    cosine = np.eye(steps, dtype=np.float64)
    norms = np.linalg.norm(snapshots, axis=2)
    for i in range(steps):
        rest = snapshots[i + 1:]
        if rest.shape[0] == 0:
            continue
        diff = rest - snapshots[i]
        dist = np.linalg.norm(diff, axis=2).mean(axis=1)
        euclid[i, i + 1:] = dist
        euclid[i + 1:, i] = dist
        dots = (rest * snapshots[i]).sum(axis=2)
        denom = np.maximum(norms[i + 1:] * norms[i], 1e-12)
        sim = (dots / denom).mean(axis=1)
        cosine[i, i + 1:] = sim
        cosine[i + 1:, i] = sim
    return euclid, cosine


def kv_dynamics(
    keys: np.ndarray,
    values: np.ndarray,
    decode_steps: np.ndarray,
) -> DynamicsResult:
    """Measure how key/value rows move across denoising steps.

    ``keys``/``values`` are [steps, seq, width] snapshots on the fixed
    natural position order; ``decode_steps[p]`` is the step at which
    position ``p`` was revealed (-1 for prompt positions). Emits pairwise
    step distance matrices, per-token pre/post-reveal change means, and
    the fraction of tokens whose change at the reveal transition exceeds
    their own median step change. That fraction is NaN when it is
    undefined (``DynamicsResult.spike_undefined`` says why): with one
    transition (two steps), or when no token is revealed before the final
    step. Each token's top-2 largest and smallest change steps hold one
    step when the run has one transition. Malformed inputs raise
    ValueError.
    """
    if np.ndim(keys) != 3 or np.shape(keys) != np.shape(values):
        raise ValueError("snapshots missing or malformed")
    steps = keys.shape[0]
    if steps < 2:
        raise ValueError(f"{steps} snapshot step(s); dynamics need at least "
                         "two (rerun generate with more steps)")
    decode_steps = np.asarray(decode_steps)
    if (decode_steps.shape != keys.shape[1:2]
            or not np.issubdtype(decode_steps.dtype, np.integer)
            or ((decode_steps < -1) | (decode_steps >= steps)).any()):
        raise ValueError(f"decode steps must be {keys.shape[1]} integers in "
                         f"[-1, {steps}), one per position")
    key_eu, key_cos = _pairwise(keys)
    val_eu, val_cos = _pairwise(values)

    changes = np.linalg.norm(keys[1:] - keys[:-1], axis=2)  # [steps-1, seq]
    stats: list[TokenStat] = []
    for pos in range(keys.shape[1]):
        reveal = int(decode_steps[pos])
        if reveal < 0:
            continue
        series = changes[:, pos]
        order = [int(step) for step in np.argsort(series, kind="stable") + 1]
        pre = float(series[:reveal].mean()) if reveal > 0 else float("nan")
        post = (float(series[reveal + 1:].mean())
                if reveal + 1 < series.shape[0] else float("nan"))
        stats.append(TokenStat(
            position=pos,
            decode_step=reveal,
            pre_mean=pre,
            post_mean=post,
            top2_max_steps=tuple(order[::-1][:2]),
            top2_min_steps=tuple(order[:2]),
            # revealed at the final step: no later snapshot to observe
            reveal_change=(float(series[reveal])
                           if reveal < series.shape[0] else float("nan")),
            median_change=float(np.median(series)),
        ))
    return DynamicsResult(
        key_euclidean=key_eu,
        key_cosine=key_cos,
        value_euclidean=val_eu,
        value_cosine=val_cos,
        token_stats=stats,
    )


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    steps = matrix.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [str(i) for i in range(steps)])
        for i in range(steps):
            writer.writerow([str(i)] + [repr(float(x)) for x in matrix[i]])


def write_dynamics_csvs(result: DynamicsResult, out_dir) -> list[Path]:
    """Write the matrices and per-token stats; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, matrix in [
        ("dynamics_key_euclidean.csv", result.key_euclidean),
        ("dynamics_key_cosine.csv", result.key_cosine),
        ("dynamics_value_euclidean.csv", result.value_euclidean),
        ("dynamics_value_cosine.csv", result.value_cosine),
    ]:
        path = out_dir / name
        _write_matrix(path, matrix)
        written.append(path)
    stats_path = out_dir / "dynamics_token_stats.csv"
    with open(stats_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token_position", "decode_step", "pre_mean",
                         "post_mean", "max_change_step"])
        for s in result.token_stats:
            writer.writerow([s.position, s.decode_step, repr(s.pre_mean),
                             repr(s.post_mean), s.max_change_step])
    written.append(stats_path)
    extremes_path = out_dir / "dynamics_token_extremes.csv"
    with open(extremes_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token_position", "decode_step",
                         "top2_max_steps", "top2_min_steps",
                         "reveal_change", "median_change", "spike"])
        for s in result.token_stats:
            writer.writerow([
                s.position, s.decode_step,
                ";".join(str(x) for x in s.top2_max_steps),
                ";".join(str(x) for x in s.top2_min_steps),
                repr(s.reveal_change), repr(s.median_change),
                "" if s.spike is None else int(s.spike),
            ])
    written.append(extremes_path)
    return written


def verify_trace_invariants(trace: StepTrace) -> None:
    """Assert the sampler invariants over a full trace.

    Checks monotone unmasking, per-step decode counts, block containment,
    finalized-token immutability against the final sequence, and that no
    mask tokens remain in the generation region. Raises ValueError naming
    the violated invariant.
    """
    final = trace.final_tokens
    if final is not None and np.any(
            final[trace.prompt_len:] == trace.mask_token_id):
        raise ValueError("residual mask tokens in the generation region")
    decoded_total = 0
    seen: set[int] = set()
    prev_masked_count = trace.gen_len
    for rec in trace.records:
        if rec.masked_count != prev_masked_count:
            raise ValueError(
                f"monotone unmasking violated at step {rec.step}: expected "
                f"{prev_masked_count} masked, recorded {rec.masked_count}")
        k = len(rec.decoded_positions)
        if k == 0:
            raise ValueError(f"no tokens finalized at step {rec.step}")
        if seen & set(rec.decoded_positions):
            raise ValueError(
                f"finalized-token immutability violated: step {rec.step} "
                "re-decoded a position")
        lo, hi = rec.block
        for pos, tok in zip(rec.decoded_positions, rec.decoded_ids):
            if not lo <= pos < hi:
                raise ValueError(
                    f"block containment violated at step {rec.step}: "
                    f"position {pos} outside block [{lo}, {hi})")
            if final is not None and final[pos] != tok:
                raise ValueError(
                    f"finalized-token immutability violated: position {pos} "
                    f"ended as {int(final[pos])}, decoded as {tok}")
        seen.update(rec.decoded_positions)
        decoded_total += k
        prev_masked_count -= k
    if decoded_total != trace.gen_len:
        raise ValueError(
            f"decoded {decoded_total} tokens, expected {trace.gen_len}")
