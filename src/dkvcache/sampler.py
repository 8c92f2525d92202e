"""Absorbing-state noising and the reverse (denoising) sampling loop.

Generation starts from an all-mask generation region appended to the
prompt. Each step runs the model over the step's compute set, predicts
clean tokens for the still-masked positions, finalizes a scheduled number
of them, and reverts the rest to the mask id. Finalized tokens are never
touched again. The cache engine decides how much of the sequence is
recomputed versus served from cache.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .cache_engine import (
    CacheEngine,
    CacheVariant,
    VariantKind,
    scatter_outputs,
)
from .model_core import ConfigError, ModelWeights, check_types, forward_partial
from .trace import StepAudit, StepRecord, StepTrace

__all__ = [
    "Remasking",
    "NoiseSchedule",
    "SamplerConfig",
    "GenerationError",
    "StepSchedule",
    "alpha_bar",
    "corrupt",
    "tokens_per_step_schedule",
    "predict_x0",
    "select_to_unmask",
    "decode_step",
    "generate",
]


class Remasking(str, Enum):
    RANDOM = "random"
    LOW_CONFIDENCE = "low_confidence"
    TOP_MARGIN = "top_margin"


def alpha_bar(t: int, total_steps: int) -> float:
    """Survival probability of a clean token through step t (linear: 1 - t/T)."""
    if not 0 <= t <= total_steps:
        raise ValueError(f"step {t} outside [0, {total_steps}]")
    return 1.0 - t / total_steps


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear masking schedule over ``total_steps`` discrete steps."""

    total_steps: int

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")

    def alpha_bar(self, t: int) -> float:
        return alpha_bar(t, self.total_steps)


def corrupt(
    x0,
    t: int,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    mask_token_id: int,
) -> np.ndarray:
    """Forward noising: mask each token independently with prob 1 - alpha_bar(t).

    The mask id is absorbing: already-masked entries stay masked.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    p_mask = 1.0 - schedule.alpha_bar(t)
    draw = rng.random(x0.shape[0])
    return np.where(draw < p_mask, mask_token_id, x0)


@dataclass(frozen=True)
class StepSchedule:
    """Per-step decode counts plus the block each step works in.

    Blocks partition the generation region into contiguous spans decoded
    left to right; ``blocks`` holds (start, end) offsets within the
    generation region.
    """

    counts: tuple[int, ...]
    block_of: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...]


def _largest_remainder(
    total: int,
    quotas: Sequence[float],
    highs: Sequence[int],
) -> list[int]:
    """Integer split of ``total`` by quota with 1 <= value <= high per slot.

    Starts from clamped floors, then adds units toward the largest
    fractional shortfall (ties to the lowest index). Feasible whenever
    len(quotas) <= total <= sum(highs). The quotas sum to ``total`` and
    all but the last are >= 1, so only the last floor can be raised to 1
    and the clamped floors never sum above the integer ``total``.
    """
    vals = [min(h, max(1, int(math.floor(q)))) for q, h in zip(quotas, highs)]
    while sum(vals) < total:
        i = max((i for i in range(len(vals)) if vals[i] < highs[i]),
                key=lambda i: (quotas[i] - vals[i], -i))
        vals[i] += 1
    return vals


def _check_schedule(gen_len: int, steps: int, block_size: int) -> None:
    """Raise ``ConfigError`` unless ``1 <= block_size <= gen_len`` and
    ``ceil(gen_len / block_size) <= steps <= gen_len``: every block gets a
    step and every step finalizes a token."""
    if not 1 <= block_size <= gen_len:
        raise ConfigError(
            f"block_size ({block_size}) must be in [1, gen_len ({gen_len})]")
    n_blocks = -(-gen_len // block_size)
    if not n_blocks <= steps <= gen_len:
        raise ConfigError(
            f"steps ({steps}) must be in [{n_blocks}, {gen_len}]: each of "
            f"the {n_blocks} blocks needs a step and every step finalizes "
            "a token")


def tokens_per_step_schedule(gen_len: int, steps: int, block_size: int) -> StepSchedule:
    """Distribute ``gen_len`` decodes over ``steps`` across contiguous blocks.

    Steps are split among blocks proportionally to block size, then each
    block's tokens are split over its steps, both by largest remainder
    (remainder to the earliest steps). Every block gets at least one step
    and every step decodes at least one token; ``_check_schedule`` rejects
    a split where that cannot hold.
    """
    _check_schedule(gen_len, steps, block_size)
    blocks = [(start, min(start + block_size, gen_len))
              for start in range(0, gen_len, block_size)]
    sizes = [end - start for start, end in blocks]
    steps_per_block = _largest_remainder(
        steps, [steps * size / gen_len for size in sizes], sizes)
    counts: list[int] = []
    block_of: list[int] = []
    for b, (size, n_steps) in enumerate(zip(sizes, steps_per_block)):
        base, rem = divmod(size, n_steps)
        for i in range(n_steps):
            counts.append(base + 1 if i < rem else base)
            block_of.append(b)
    return StepSchedule(counts=tuple(counts), block_of=tuple(block_of),
                        blocks=tuple(blocks))


_SMALLEST_TEMPERATURE = float(np.finfo(np.float32).smallest_subnormal)


def predict_x0(
    logits: np.ndarray,
    temperature: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predict clean tokens for masked rows.

    One softmax serves every temperature: each row is shifted by its max
    and, at temperature > 0, divided by the temperature, so a tiny one
    cannot overflow it; one below float32's smallest subnormal divides as
    that subnormal. Temperature 0 then takes the argmax (ties to the
    lowest id), any other a categorical sample. Confidence is the
    post-softmax probability of the chosen id and margin the gap between
    the top-2 probabilities, both at the sampling temperature. This
    function is public, so it refuses a NaN, infinite or negative
    temperature, which would otherwise decode silently.
    """
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if logits.shape[1] < 2:
        raise ValueError("need at least two vocabulary entries")
    # shifted first, each row's max is exactly 0 at every temperature, so
    # the softmax needs no second shift and a tiny temperature sends only
    # the entries below the max to -inf; one below float32's smallest
    # subnormal would divide by 0, and the max entry's 0 / 0 is NaN
    probs = logits - logits.max(axis=1, keepdims=True)
    if temperature > 0:
        with np.errstate(over="ignore"):
            probs /= max(temperature, _SMALLEST_TEMPERATURE)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    if temperature == 0:
        ids = np.argmax(probs, axis=1)
    else:
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        draws = rng.random(logits.shape[0])
        ids = np.minimum((cdf < draws[:, None]).sum(axis=1),
                         logits.shape[1] - 1)
    rows = np.arange(probs.shape[0])
    confidence = probs[rows, ids]
    # the runner-up is the row max once the top entry is masked; a tied
    # top entry stays, so a tie gives margin 0
    top_ids = ids if temperature == 0 else np.argmax(probs, axis=1)
    top = probs[rows, top_ids]
    probs[rows, top_ids] = -np.inf
    margin = top - probs.max(axis=1)
    return ids.astype(np.int64), confidence, margin


def select_to_unmask(
    positions: Sequence[int],
    scores: np.ndarray,
    k: int,
) -> tuple[int, ...]:
    """The k highest-scoring positions, ascending; the rest stay masked.

    ``positions`` are the candidates as given and ``scores`` their
    confidence or margin. Score ties break toward the lowest position
    index so reruns are deterministic.
    """
    positions = np.asarray(positions, dtype=np.int64)
    order = np.lexsort((positions, -np.asarray(scores)))
    return tuple(sorted(positions[order[:k]].tolist()))


@dataclass(frozen=True)
class SamplerConfig:
    gen_len: int
    steps: int
    block_size: int
    remasking: Remasking = Remasking.LOW_CONFIDENCE
    temperature: float = 0.0
    sample_seed: int = 0
    cache: CacheVariant = CacheVariant(VariantKind.NONE)
    snapshot_layer: int | None = None

    def __post_init__(self) -> None:
        check_types(self, {
            "gen_len": int, "steps": int, "block_size": int,
            "remasking": Remasking, "temperature": (int, float),
            "sample_seed": int, "cache": CacheVariant,
            "snapshot_layer": (int, type(None))})
        _check_schedule(self.gen_len, self.steps, self.block_size)
        if self.sample_seed < 0:
            raise ConfigError(f"sample_seed must be >= 0, got {self.sample_seed}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ConfigError(
                f"temperature must be finite and >= 0, got {self.temperature}")
        if (self.cache.kind is VariantKind.GREEDY
                and self.remasking is not Remasking.RANDOM):
            raise ConfigError(
                "greedy caching needs a predefined decode order, which only "
                "random remasking provides")


class GenerationError(RuntimeError):
    """Generation failed mid-run; carries the partial trace for diagnosis."""

    def __init__(self, message: str, partial_trace: StepTrace):
        super().__init__(message)
        self.partial_trace = partial_trace


def _draw_decode_order(
    sched: StepSchedule,
    prompt_len: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """The decode order of random remasking, drawn once per generation.

    Each block's positions are permuted uniformly and split over the
    block's steps by the schedule's counts; entry t holds step t's
    decodes, sorted. ``generate`` draws it before step 0 for every cache
    variant, so one seed decodes the same positions under each, and hands
    it to the engine as its ``predefined_order``.
    """
    perm = np.concatenate([
        rng.permutation(np.arange(prompt_len + start, prompt_len + end))
        for start, end in sched.blocks])
    # a block's steps are consecutive, so its decodes are consecutive too
    bounds = np.cumsum((0, *sched.counts)).tolist()
    return [tuple(sorted(perm[lo:hi].tolist()))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def decode_step(
    tokens: np.ndarray,
    rng: np.random.Generator,
    weights: ModelWeights,
    cfg: SamplerConfig,
    engine: CacheEngine,
    sched: StepSchedule,
    t: int,
    *,
    timed: bool = True,
    kv_audit: bool = False,
) -> StepRecord:
    """Run denoising step ``t``: write its decodes into ``tokens`` and
    return its record.

    ``tokens`` is the prompt followed by the ``cfg.gen_len`` generation
    positions, a position masked exactly when it holds the mask id.
    The plan fixes the compute set, and from it the logit rows: the
    positions whose logits the sampler reads. Under random remasking those
    are the step's decodes, ``engine.predefined_order[t]``, read as they
    are (``forward_partial`` rejects one the plan left uncomputed); under
    confidence or margin remasking, where that order is None, the
    candidates, the masked positions of the active block, all of which the
    plan computes. The forward pass produces K/V for every compute row but
    logits only for the logit rows, so ``predict_x0`` sees one row per
    logit row, and ``select_to_unmask`` ranks the candidates by confidence
    or margin. The logit rows are ascending in both cases (the order's
    entries are sorted), so a decoded position's id is read at its rank
    among them.
    """
    mcfg = weights.config
    block_lo, block_hi = sched.blocks[sched.block_of[t]]
    prompt_len = len(tokens) - cfg.gen_len
    block = (prompt_len + block_lo, prompt_len + block_hi)
    k = sched.counts[t]
    masked = tokens == mcfg.mask_token_id
    order = engine.predefined_order

    start_time = time.perf_counter() if timed else None
    plan = engine.plan_step(masked=masked, step=t)
    row_of = scatter_outputs(plan)
    if order is None:
        # the candidates: plan_step serves no masked position from cache
        read = np.flatnonzero(masked[block[0]:block[1]]) + block[0]
    else:
        chosen = order[t]
        read = np.asarray(chosen, dtype=np.int64)
    result = forward_partial(tokens, plan.compute_set,
                             engine.slabs, weights,
                             logit_rows=row_of[read])
    engine.commit(plan, result.kv)

    rows = result.logits
    # the absorbing state is not a clean token; never propose it as x0
    rows[:, mcfg.mask_token_id] = -np.inf
    ids, confidence, margin = predict_x0(rows, cfg.temperature, rng)
    if order is None:
        scores = (margin if cfg.remasking is Remasking.TOP_MARGIN
                  else confidence)
        chosen = select_to_unmask(read, scores, k)
    chosen_ids = ids[np.searchsorted(read, chosen)]
    tokens[list(chosen)] = chosen_ids
    decoded_ids = tuple(chosen_ids.tolist())
    millis = ((time.perf_counter() - start_time) * 1000.0
              if start_time is not None else None)

    record = StepRecord(
        step=t,
        masked_count=int(np.count_nonzero(masked)),
        logit_rows=len(read),
        decoded_positions=tuple(chosen),
        decoded_ids=decoded_ids,
        refresh=plan.refresh_flag,
        millis=millis,
        block=block,
        cached_positions=plan.cached_positions,
        compute_set=plan.compute_set,
    )
    if kv_audit:
        # fresh_kv's keys and values are already copies of the store's rows
        record.audit = StepAudit(
            fresh=[(s.row_positions.copy(), s.keys, s.values)
                   for s in result.fresh_kv],
            cached_after=[(s.row_positions.copy(), s.keys[s.row_positions],
                           s.values[s.row_positions]) for s in engine.slabs],
        )
    return record


def generate(
    prompt_ids,
    cfg: SamplerConfig,
    weights: ModelWeights,
    *,
    timed: bool = True,
    kv_audit: bool = False,
) -> tuple[np.ndarray, StepTrace]:
    """Generate ``cfg.gen_len`` tokens after the prompt.

    Returns the full sequence (prompt + generation) and the step trace.
    With ``cfg.snapshot_layer`` set, the trace holds one [steps, seq,
    d_model] key array and one value array, and each step copies that
    layer's store into its row. On a mid-run failure a GenerationError is
    raised carrying the partial trace. Prompt positions are never masked
    and never decoded.
    """
    mcfg = weights.config
    prompt = np.asarray(prompt_ids, dtype=np.int64)
    if prompt.ndim != 1:
        raise ConfigError("prompt must be a flat id list")
    if prompt.shape[0] and (prompt.min() < 0 or prompt.max() >= mcfg.vocab_size):
        raise ConfigError("prompt contains ids outside the vocabulary")
    if np.any(prompt == mcfg.mask_token_id):
        raise ConfigError("prompt must not contain the mask token id")
    seq_len = prompt.shape[0] + cfg.gen_len
    if seq_len > mcfg.max_positions:
        raise ConfigError(
            f"prompt + gen_len = {seq_len} exceeds max_positions "
            f"{mcfg.max_positions}")
    if cfg.snapshot_layer is not None and not (
            0 <= cfg.snapshot_layer < mcfg.n_layers):
        raise ConfigError(
            f"snapshot_layer {cfg.snapshot_layer} outside [0, "
            f"{mcfg.n_layers})")

    sched = tokens_per_step_schedule(cfg.gen_len, cfg.steps, cfg.block_size)
    rng = np.random.default_rng(cfg.sample_seed)
    order = (_draw_decode_order(sched, prompt.shape[0], rng)
             if cfg.remasking is Remasking.RANDOM else None)
    engine = CacheEngine(
        cfg.cache,
        seq_len=seq_len,
        prompt_len=prompt.shape[0],
        predefined_order=order,
    )

    tokens = np.full(seq_len, mcfg.mask_token_id, dtype=np.int64)
    tokens[:prompt.shape[0]] = prompt
    trace = StepTrace(
        records=[],
        prompt_len=prompt.shape[0],
        gen_len=cfg.gen_len,
        total_steps=cfg.steps,
        variant=cfg.cache.describe(),
        model_dims={name: getattr(mcfg, name) for name in (
            "n_layers", "n_heads", "d_model", "d_head", "d_ff",
            "vocab_size")},
        mask_token_id=mcfg.mask_token_id,
        snapshot_layer=cfg.snapshot_layer,
    )
    layer = cfg.snapshot_layer
    if layer is not None:
        shape = (cfg.steps, seq_len, mcfg.d_model)
        trace.snapshot_keys = np.empty(shape, dtype=np.float32)
        trace.snapshot_values = np.empty(shape, dtype=np.float32)

    try:
        for t in range(cfg.steps):
            trace.records.append(decode_step(tokens, rng, weights, cfg,
                                             engine, sched, t, timed=timed,
                                             kv_audit=kv_audit))
            if layer is not None:
                # the store is in natural order; copied, since the next
                # step writes it
                trace.snapshot_keys[t] = engine.slabs[layer].keys
                trace.snapshot_values[t] = engine.slabs[layer].values
    except Exception as exc:
        raise GenerationError(f"generation failed at step {t}: {exc}",
                              partial_trace=trace) from exc

    left = np.count_nonzero(tokens == mcfg.mask_token_id)
    if left:
        raise GenerationError(
            f"{left} positions still masked after {cfg.steps} steps",
            partial_trace=trace)
    trace.final_tokens = tokens.copy()
    return tokens.copy(), trace
