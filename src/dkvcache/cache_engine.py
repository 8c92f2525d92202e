"""Cache planning and maintenance for the denoising loop.

A masked-denoising sampler cannot reuse key/value rows the way a
left-to-right decoder does: attention is bidirectional and the decode
order is not sequential. The workaround implemented here is *delayed*
caching: a position becomes cacheable only after its token id has been
revealed, and its rows are taken from the forward pass one step after the
reveal, when the fresh computation has already seen the revealed id.

Per layer the cache is one store in natural position order: row p holds
position p. It is allocated by step 0's forward pass and reused by every
later step, whose pass writes its compute set's fresh rows at their
positions. Keys carry the rotary rotation of their own position, so
attention reads the store as it is. Updating the cache for the next step
moves no data: the commit only records which positions stay cached.

Variants
--------
Every variant recomputes exactly the positions its cache does not hold;
they differ only in what each step's commit keeps for the next step.

none     keeps nothing: every step recomputes everything (baseline).
decode   keeps the positions unmasked at the start of the step, so a
         token's rows are cached from the step after its reveal (one-step
         delay); optional full refresh every ``refresh_interval`` steps.
greedy   keeps everything outside the next step's greedy set: that step's
         decodes, this step's decodes and a local window around the
         configured centres. Still-masked positions are served stale from
         cache. Between refreshes, per-step compute is independent of
         sequence length. Needs a predefined (random-order) decode schedule.
prefill  keeps the prompt: prompt rows are cached permanently and every
         generated position is recomputed.
pd       keeps what ``decode`` keeps; before a refresh it keeps the prompt,
         so a refresh recomputes decoded rows but never prompt rows.

A refresh is nothing more than the commit before it keeping nothing (the
prompt under ``pd``). Step 0 computes everything: nothing is cached yet.

Because every step computes exactly the complement of its cache, every
row of the store is valid after the step's write. The engine trusts the
plans it builds, and ``commit`` checks nothing. ``forward_partial`` checks
the cached/compute partition once per step. Plan soundness is
``selftest``'s kept rows oracle: after a served partial pass and a commit,
the store's rows at the next cached positions must equal the rows of
their last computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model_core import KVSlab, check_types

__all__ = [
    "VariantKind",
    "WindowCenter",
    "CacheVariant",
    "ComputePlan",
    "CacheEngine",
    "scatter_outputs",
    "write_cache_debug",
]


class VariantKind(str, Enum):
    NONE = "none"
    DECODE = "decode"
    GREEDY = "greedy"
    PREFILL = "prefill"
    PD = "pd"


class WindowCenter(str, Enum):
    PREVIOUS = "previous"
    CURRENT = "current"


# Per parameter: the kinds that take it, the name an error gives it, the
# value that does nothing and its label in ``describe``; checked and
# described in this order
_PARAMETERS = {
    "refresh_interval": ((VariantKind.DECODE, VariantKind.PD, VariantKind.GREEDY),
                         "refresh_interval", None, "N"),
    "window_size": ((VariantKind.GREEDY,), "window", 0, "w"),
    "window_center": ((VariantKind.GREEDY,), "window", WindowCenter.PREVIOUS,
                      "center"),
}


def _reject_untaken(kind: VariantKind, given) -> None:
    """Raise for the first parameter named in ``given`` that ``kind`` does
    not take."""
    for name, (kinds, noun, _, _) in _PARAMETERS.items():
        if name in given and kind not in kinds:
            raise ValueError(f"{kind.value} takes no {noun}")


@dataclass(frozen=True)
class CacheVariant:
    kind: VariantKind
    refresh_interval: int | None = None  # None: never refresh
    window_size: int | None = None  # None: 4 under greedy, else 0
    window_center: WindowCenter = WindowCenter.PREVIOUS

    def __post_init__(self) -> None:
        check_types(self, {"kind": VariantKind,
                           "refresh_interval": (int, type(None)),
                           "window_size": (int, type(None)),
                           "window_center": WindowCenter})
        if self.window_size is None:
            object.__setattr__(
                self, "window_size", 4 if self.kind is VariantKind.GREEDY else 0)
        _reject_untaken(self.kind, [
            name for name, (_, _, unused, _) in _PARAMETERS.items()
            if getattr(self, name) != unused])
        if self.refresh_interval is not None and self.refresh_interval < 1:
            raise ValueError("refresh_interval must be >= 1, got "
                             f"{self.refresh_interval}")
        if self.window_size < 0:
            raise ValueError(f"window_size must be >= 0, got {self.window_size}")

    @classmethod
    def of(cls, kind: VariantKind, **params) -> "CacheVariant":
        """Build a ``kind`` variant from the parameters given, rejecting a
        parameter the kind does not take whatever its value: ``none:inf``
        and ``decode:8:0`` are errors, ``decode:inf`` is not."""
        _reject_untaken(kind, params)
        return cls(kind=kind, **params)

    @classmethod
    def parse(cls, text: str) -> "CacheVariant":
        """Parse ``none``, ``decode[:N]``, ``greedy[:N[:w[:center]]]``,
        ``prefill`` or ``pd[:N]``; ``N`` may be ``inf``."""
        kind, *parts = text.strip().lower().split(":")
        try:
            kind = VariantKind(kind)
        except ValueError:
            raise ValueError(f"unknown cache variant {text!r}") from None
        if len(parts) > 3:
            raise ValueError(f"cache variant {text!r}: surplus parameters "
                             f"{':'.join(parts[3:])!r}")
        convert = {"refresh_interval": lambda n: None if n == "inf" else int(n),
                   "window_size": int, "window_center": WindowCenter}
        params = {}
        for name, part in zip(convert, parts):
            try:
                params[name] = convert[name](part)
            except ValueError:
                raise ValueError(f"cache variant {text!r}: bad {name} "
                                 f"{part!r}") from None
        return cls.of(kind, **params)

    def describe(self) -> str:
        """``kind(label=value,...)`` over the parameters the kind takes,
        e.g. ``decode(N=inf)``; a kind that takes none is its name."""
        def text(value) -> str:
            # only refresh_interval is ever None: it never refreshes
            return "inf" if value is None else str(getattr(value, "value", value))

        shown = ",".join(f"{label}={text(getattr(self, name))}"
                         for name, (kinds, _, _, label) in _PARAMETERS.items()
                         if self.kind in kinds)
        return f"{self.kind.value}({shown})" if shown else self.kind.value


@dataclass
class ComputePlan:
    """One step's position sets; every position field is an int64 array.

    ``cached_positions`` are served from the store this step and
    ``compute_set``, their complement, is computed and written into it;
    ``next_cached_positions`` are the positions the commit keeps.
    """

    compute_set: np.ndarray
    cached_positions: np.ndarray
    next_cached_positions: np.ndarray
    refresh_flag: bool

    @property
    def reorder_index(self) -> np.ndarray:
        # perfbench's tracing.TRACED is its only reader: the commit's row count
        return self.next_cached_positions


def _complement(positions, seq_len: int) -> np.ndarray:
    """Ascending positions of ``range(seq_len)`` absent from ``positions``."""
    keep = np.ones(seq_len, dtype=bool)
    keep[np.asarray(positions, dtype=np.int64)] = False
    return np.flatnonzero(keep)


_NOTHING = np.zeros(0, dtype=np.int64)
_NOTHING.setflags(write=False)


def scatter_outputs(plan: ComputePlan) -> np.ndarray:
    """Map original positions to their compute rows.

    Returns, per sequence position, its row in ``plan.compute_set`` (the
    index ``forward_partial`` takes as a logit row), or -1 for positions
    outside the compute set: they carry no logits this step.
    """
    seq_len = len(plan.compute_set) + len(plan.cached_positions)
    row_of = np.full(seq_len, -1, dtype=np.int64)
    row_of[plan.compute_set] = np.arange(len(plan.compute_set))
    return row_of


class CacheEngine:
    """Stateful per-generation cache: plans a step, then commits it.

    The engine owns the per-layer stores and the cached positions (an
    ascending int64 array). Each step recomputes exactly the positions
    the cache does not hold, so the one decision per step is which
    positions its commit keeps for the next step. One plan is produced
    per step and shared read-only across layers. ``slabs`` holds the
    per-layer stores, each with the cached positions as its
    ``row_positions``; it is None before the first commit.
    ``predefined_order`` is the sampler's random decode order, step t's
    decodes at entry t, kept as given, or None under confidence
    remasking. Greedy reads it to plan around the next decodes (``_kept``
    plans greedy's window there), and ``sampler.decode_step`` reads step
    t's decodes from it.
    """

    def __init__(
        self,
        variant: CacheVariant,
        *,
        seq_len: int,
        prompt_len: int = 0,
        predefined_order: Sequence[Sequence[int]] | None = None,
    ) -> None:
        if variant.kind is VariantKind.GREEDY and predefined_order is None:
            raise ValueError("greedy caching requires a predefined decode "
                             "order (random remasking)")
        self.variant = variant
        self.seq_len = seq_len
        # read-only: ``_kept`` hands it out as the next cached positions
        self.prefill = np.arange(prompt_len, dtype=np.int64)
        self.prefill.setflags(write=False)
        self.predefined_order = predefined_order
        self.cached_positions = _NOTHING
        self.slabs: list[KVSlab] | None = None

    def _refreshes(self, step: int) -> bool:
        interval = self.variant.refresh_interval
        return step > 0 and interval is not None and step % interval == 0

    def _kept(self, masked: np.ndarray, step: int) -> np.ndarray:
        """Positions the commit of ``step`` keeps for ``step + 1``, ascending.

        Greedy keeps the complement of step + 1's greedy set, built as one
        keep-mask: it clears this step's and the next step's decodes and,
        around each centre c, ``[c - ceil(w/2), c + floor(w/2)]`` clipped
        to the generation region ``[prompt_len, seq_len)``.
        """
        kind = self.variant.kind
        if kind is VariantKind.NONE:
            return _NOTHING
        if self._refreshes(step + 1):
            return self.prefill if kind is VariantKind.PD else _NOTHING
        if kind in (VariantKind.DECODE, VariantKind.PD):
            return np.flatnonzero(~masked)
        if kind is VariantKind.PREFILL:
            return self.prefill
        # greedy: keep everything outside step + 1's greedy set, stale rows
        # of still-masked positions included
        order = self.predefined_order
        if step + 1 >= len(order):
            return _NOTHING
        decoded, upcoming = order[step], order[step + 1]
        centers = (decoded if self.variant.window_center is WindowCenter.PREVIOUS
                   else upcoming)
        w = self.variant.window_size
        below, above = math.ceil(w / 2), w // 2
        keep = np.ones(self.seq_len, dtype=bool)
        for c in centers:
            keep[max(len(self.prefill), c - below):c + above + 1] = False
        for decodes in (decoded, upcoming):
            keep[np.asarray(decodes, dtype=np.int64)] = False
        return np.flatnonzero(keep)

    def plan_step(self, *, masked: np.ndarray, step: int) -> ComputePlan:
        """Plan ``step`` from the bool mask of still-masked positions.

        The compute set is everything the cache does not hold. Outside
        greedy, which serves still-masked rows stale by design, a masked
        position must never be served from cache.
        """
        masked = np.asarray(masked, dtype=bool)
        if masked.shape != (self.seq_len,):
            raise ValueError(f"masked must be a bool mask of {self.seq_len} "
                             f"positions, got shape {masked.shape}")
        cached = self.cached_positions
        if self.variant.kind is not VariantKind.GREEDY:
            served = cached[masked[cached]]
            if served.size:
                raise ValueError(f"masked position {served[0]} is served from "
                                 f"cache at step {step}")
        return ComputePlan(
            compute_set=_complement(cached, self.seq_len),
            cached_positions=cached,
            next_cached_positions=self._kept(masked, step),
            refresh_flag=self._refreshes(step),
        )

    def commit(self, plan: ComputePlan, kv: Sequence[KVSlab]) -> None:
        """Keep ``plan.next_cached_positions`` for the next step.

        ``kv`` is the natural-order store the step's pass wrote
        (``ForwardResult.kv``): a new one at step 0, which the engine
        adopts, and the engine's own after that. No row moves: the next
        step is served the same arrays with the next cached positions.
        """
        self.slabs = [KVSlab(layer=slab.layer, keys=slab.keys,
                             values=slab.values,
                             row_positions=plan.next_cached_positions)
                      for slab in kv]
        self.cached_positions = plan.next_cached_positions


def write_cache_debug(records, path) -> None:
    """Dump per-step cache layout as JSONL (step, cached, compute, refresh)."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps({
                "step": rec.step,
                "cached_positions": rec.cached_positions.tolist(),
                "compute_set": rec.compute_set.tolist(),
                "refresh_flag": rec.refresh,
            }) + "\n")
