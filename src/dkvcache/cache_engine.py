"""Cache planning and maintenance for the denoising loop.

A masked-denoising sampler cannot reuse key/value rows the way a
left-to-right decoder does: attention is bidirectional and the decode
order is not sequential. The workaround implemented here is *delayed*
caching: a position becomes cacheable only after its token id has been
revealed, and its rows are taken from the forward pass one step after the
reveal, when the fresh computation has already seen the revealed id.

Per layer the cache stores rows left-contiguous in storage layout order;
fresh rows for the step's compute set are appended on the right. The
position ids travel with the rows, so the rotary rotation stays keyed to
original positions and attention is layout-agnostic. Updating the cache
for the next step is a single row gather, from the [cached ; fresh] rows
the forward pass attended over, through a reorder index that is computed
once per step and shared across layers.

Variants
--------
none     recompute everything every step (baseline).
decode   compute set = previous step's masked set (one-step delay);
         optional full refresh every ``refresh_interval`` steps.
greedy   compute set = current decodes + previous decodes + a local
         window around the previous decodes; everything else, including
         still-masked positions, is served stale from cache. Per-step
         compute is independent of sequence length. Needs a predefined
         (random-order) decode schedule.
prefill  cache prompt rows permanently; recompute all generated positions.
pd       decode-style delayed caching plus a permanent prefill cache;
         refresh recomputes decoded rows but never prompt rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .model_core import KVSlab

__all__ = [
    "LayoutError",
    "VariantKind",
    "WindowCenter",
    "CacheVariant",
    "ComputePlan",
    "CacheEngine",
    "plan_compute_set",
    "greedy_window",
    "build_layout",
    "scatter_outputs",
    "write_cache_debug",
]


class LayoutError(ValueError):
    """Cache layout bookkeeping is inconsistent."""


class VariantKind(str, Enum):
    NONE = "none"
    DECODE = "decode"
    GREEDY = "greedy"
    PREFILL = "prefill"
    PD = "pd"


class WindowCenter(str, Enum):
    PREVIOUS = "previous"
    CURRENT = "current"


@dataclass(frozen=True)
class CacheVariant:
    kind: VariantKind
    refresh_interval: int | None = None  # None: never refresh
    window_size: int = 0
    window_center: WindowCenter = WindowCenter.PREVIOUS

    def __post_init__(self) -> None:
        if self.refresh_interval is not None and self.refresh_interval < 1:
            raise ValueError(
                f"refresh_interval must be >= 1, got {self.refresh_interval}")
        if self.window_size < 0:
            raise ValueError(f"window_size must be >= 0, got {self.window_size}")

    @classmethod
    def none(cls) -> "CacheVariant":
        return cls(kind=VariantKind.NONE)

    @classmethod
    def decode(cls, refresh_interval: int | None = None) -> "CacheVariant":
        return cls(kind=VariantKind.DECODE, refresh_interval=refresh_interval)

    @classmethod
    def greedy(
        cls,
        refresh_interval: int | None = None,
        window_size: int = 4,
        window_center: WindowCenter = WindowCenter.PREVIOUS,
    ) -> "CacheVariant":
        return cls(kind=VariantKind.GREEDY, refresh_interval=refresh_interval,
                   window_size=window_size, window_center=window_center)

    @classmethod
    def prefill(cls) -> "CacheVariant":
        return cls(kind=VariantKind.PREFILL)

    @classmethod
    def pd(cls, refresh_interval: int | None = None) -> "CacheVariant":
        return cls(kind=VariantKind.PD, refresh_interval=refresh_interval)

    @classmethod
    def parse(cls, text: str) -> "CacheVariant":
        """Parse ``none``, ``decode[:N]``, ``greedy[:N[:w[:center]]]``,
        ``prefill`` or ``pd[:N]``; ``N`` may be ``inf``."""
        parts = text.strip().lower().split(":")
        kind = parts[0]

        def interval(token: str | None) -> int | None:
            if token is None or token == "inf":
                return None
            return int(token)

        if kind == "none":
            return cls.none()
        if kind == "decode":
            return cls.decode(interval(parts[1] if len(parts) > 1 else None))
        if kind == "greedy":
            return cls.greedy(
                refresh_interval=interval(parts[1] if len(parts) > 1 else None),
                window_size=int(parts[2]) if len(parts) > 2 else 4,
                window_center=WindowCenter(parts[3]) if len(parts) > 3
                else WindowCenter.PREVIOUS,
            )
        if kind == "prefill":
            return cls.prefill()
        if kind == "pd":
            return cls.pd(interval(parts[1] if len(parts) > 1 else None))
        raise ValueError(f"unknown cache variant {text!r}")

    def describe(self) -> str:
        n = "inf" if self.refresh_interval is None else str(self.refresh_interval)
        if self.kind is VariantKind.NONE:
            return "none"
        if self.kind is VariantKind.DECODE:
            return f"decode(N={n})"
        if self.kind is VariantKind.GREEDY:
            return (f"greedy(N={n},w={self.window_size},"
                    f"center={self.window_center.value})")
        if self.kind is VariantKind.PREFILL:
            return "prefill"
        return f"pd(N={n})"


@dataclass
class ComputePlan:
    """One step's layout decision; every position field is an int64 array.

    ``layout`` is [cached_positions ; compute_set], a permutation of the
    whole sequence, and gives the original position of each layout row.
    ``reorder_index`` selects, from layout rows, the rows that form the
    next step's cache (``next_cached_positions`` order).
    """

    step: int
    compute_set: np.ndarray
    cached_positions: np.ndarray
    layout: np.ndarray
    reorder_index: np.ndarray
    next_cached_positions: np.ndarray
    refresh_flag: bool

    def validate(self, seq_len: int) -> None:
        if not np.array_equal(self.layout, np.concatenate(
                [self.cached_positions, self.compute_set])):
            raise LayoutError("layout soundness violated: layout is not "
                              "[cached ; compute]")
        if not np.array_equal(np.sort(self.layout), np.arange(seq_len)):
            raise LayoutError("layout soundness violated: layout is not a "
                              "permutation of the sequence positions")
        if self.reorder_index.shape != self.next_cached_positions.shape:
            raise LayoutError("layout soundness violated: reorder index size "
                              "mismatch")
        if self.reorder_index.size and (
                self.reorder_index.min() < 0
                or self.reorder_index.max() >= len(self.layout)):
            raise LayoutError("layout soundness violated: reorder index out "
                              "of bounds")
        if not np.array_equal(self.layout[self.reorder_index],
                              self.next_cached_positions):
            raise LayoutError("layout soundness violated: reorder index does "
                              "not select the next cached set")


def _positions(positions: Iterable[int]) -> np.ndarray:
    """Ascending int64 array of distinct positions."""
    return np.array(sorted(int(p) for p in positions), dtype=np.int64)


def _complement(positions: Iterable[int], seq_len: int) -> np.ndarray:
    """Ascending positions of ``range(seq_len)`` absent from ``positions``."""
    keep = np.ones(seq_len, dtype=bool)
    keep[np.fromiter(positions, dtype=np.int64)] = False
    return np.flatnonzero(keep)


def _check_shrinking(masked: frozenset[int], prev_masked: frozenset[int]) -> None:
    if not masked <= prev_masked:
        raise ValueError("masked set must shrink monotonically: current "
                         "masked set is not contained in the previous one")


def greedy_window(
    center_positions: Iterable[int],
    window_size: int,
    region: tuple[int, int],
) -> set[int]:
    """Union of windows [c - ceil(w/2), c + floor(w/2)] clipped to ``region``.

    ``region`` is the half-open generation span; positions outside it do
    not exist for windowing purposes.
    """
    if window_size < 0:
        raise ValueError(f"window_size must be >= 0, got {window_size}")
    lo_off = math.ceil(window_size / 2)
    hi_off = window_size // 2
    start, end = region
    out: set[int] = set()
    for center in center_positions:
        lo = max(start, center - lo_off)
        hi = min(end - 1, center + hi_off)
        out.update(range(lo, hi + 1))
    return out


def plan_compute_set(
    variant: CacheVariant,
    *,
    masked: Iterable[int],
    prev_masked: Iterable[int],
    prev_decoded: Iterable[int],
    prefill: Iterable[int],
    step: int,
    seq_len: int,
    gen_region: tuple[int, int] | None = None,
    predefined_order: Sequence[Sequence[int]] | None = None,
) -> tuple[np.ndarray, bool]:
    """Decide which positions are recomputed this step.

    Returns the compute set (ascending int64 array) and whether this step
    discards the cache first. Step 0 always computes everything: there is
    no cache yet, and the full pass doubles as the prefill pass.
    """
    prev_masked = frozenset(int(p) for p in prev_masked)
    _check_shrinking(frozenset(int(p) for p in masked), prev_masked)
    prefill_set = frozenset(int(p) for p in prefill)
    everything = np.arange(seq_len, dtype=np.int64)
    if variant.kind is VariantKind.NONE:
        return everything, False
    if step == 0:
        return everything, False

    interval = variant.refresh_interval
    refresh = (interval is not None and step % interval == 0
               and variant.kind is not VariantKind.PREFILL)
    if refresh:
        if variant.kind is VariantKind.PD:
            return _complement(prefill_set, seq_len), True
        return everything, True

    if variant.kind in (VariantKind.DECODE, VariantKind.PD):
        return _positions(prev_masked), False
    if variant.kind is VariantKind.PREFILL:
        return _complement(prefill_set, seq_len), False

    # greedy
    if predefined_order is None:
        raise ValueError("greedy caching requires a predefined decode order "
                         "(random remasking)")
    if gen_region is None:
        gen_region = (len(prefill_set), seq_len)
    current = set(int(p) for p in predefined_order[step])
    previous = set(int(p) for p in prev_decoded)
    centers = previous if variant.window_center is WindowCenter.PREVIOUS else current
    window = greedy_window(centers, variant.window_size, gen_region)
    return _positions(current | previous | window), False


def build_layout(
    compute_set: Sequence[int],
    cached_positions: Sequence[int],
    next_cached_positions: Sequence[int],
    seq_len: int,
    step: int = 0,
    refresh_flag: bool = False,
) -> ComputePlan:
    """Assemble the [cached ; fresh] layout and the next-step reorder index.

    The reorder index is computed once here and shared by every layer's
    gather during the commit.
    """
    compute = np.asarray(compute_set, dtype=np.int64)
    cached = np.asarray(cached_positions, dtype=np.int64)
    nxt = np.asarray(next_cached_positions, dtype=np.int64)
    layout = np.concatenate([cached, compute])
    # layout row of each position, -1 where absent; validate() below
    # rejects a layout whose positions fall outside the sequence
    row_of = np.full(seq_len, -1, dtype=np.int64)
    np.put(row_of, layout, np.arange(layout.shape[0]), mode="clip")
    reorder = np.take(row_of, nxt, mode="clip")
    absent = (reorder < 0) | (nxt < 0) | (nxt >= seq_len)
    if absent.any():
        raise LayoutError(f"next cached position {nxt[absent][0]} is absent "
                          "from the layout")
    plan = ComputePlan(
        step=step,
        compute_set=compute,
        cached_positions=cached,
        layout=layout,
        reorder_index=reorder,
        next_cached_positions=nxt,
        refresh_flag=refresh_flag,
    )
    plan.validate(seq_len)
    return plan


def scatter_outputs(plan: ComputePlan, partial_logits: np.ndarray) -> np.ndarray:
    """Map original positions to their logit rows.

    Returns, per sequence position, the row of ``partial_logits`` holding
    its logits, or -1 for positions outside the compute set: they carry
    no logits this step.
    """
    if partial_logits.shape[0] != len(plan.compute_set):
        raise LayoutError(
            f"row-count mismatch: {partial_logits.shape[0]} logit rows for "
            f"{len(plan.compute_set)} computed positions")
    row_of = np.full(len(plan.layout), -1, dtype=np.int64)
    row_of[plan.compute_set] = np.arange(len(plan.compute_set))
    return row_of


class CacheEngine:
    """Stateful per-generation cache: plans a step, then commits fresh rows.

    The engine owns the per-layer slabs and the cached positions (an
    ascending int64 array); the sampler feeds it the masked-set
    bookkeeping. One plan is produced per step and shared read-only
    across layers.
    """

    def __init__(
        self,
        variant: CacheVariant,
        *,
        seq_len: int,
        n_layers: int,
        kv_width: int,
        prefill: Iterable[int] = (),
        predefined_order: Sequence[Sequence[int]] | None = None,
    ) -> None:
        prefill = _positions(prefill)
        if not np.array_equal(prefill, np.arange(len(prefill))):
            raise ValueError("prefill positions must be the sequence prefix")
        if variant.kind is VariantKind.GREEDY and predefined_order is None:
            raise ValueError("greedy caching requires a predefined decode "
                             "order (random remasking)")
        self.variant = variant
        self.seq_len = seq_len
        self.n_layers = n_layers
        self.kv_width = kv_width
        self.prefill = prefill
        self.predefined_order = (
            [tuple(int(p) for p in step) for step in predefined_order]
            if predefined_order is not None else None)
        self.cached_positions = np.zeros(0, dtype=np.int64)
        self.slabs: list[KVSlab] = [KVSlab.empty(i, kv_width)
                                    for i in range(n_layers)]
        # greedy: (step, compute set, refresh) planned one step ahead
        self._planned: tuple[int, np.ndarray, bool] | None = None

    def cache_slabs(self) -> list[KVSlab] | None:
        """Current per-layer cache, or None when nothing is cached."""
        if not self.cached_positions.size:
            return None
        return self.slabs

    def refresh(self) -> None:
        """Discard cached rows; under pd the prompt rows are kept.

        Prompt rows sit at the front of the ascending cached order, so
        keeping them is a prefix slice, not a recomputation.
        """
        if self.variant.kind is VariantKind.PD and self.prefill.size:
            keep = len(self.prefill)
            if not np.array_equal(self.cached_positions[:keep], self.prefill):
                raise LayoutError("prefill rows missing from cache at refresh")
            self.cached_positions = self.prefill
            self.slabs = [
                KVSlab(layer=s.layer, keys=s.keys[:keep], values=s.values[:keep],
                       row_positions=s.row_positions[:keep])
                for s in self.slabs
            ]
        else:
            self.cached_positions = np.zeros(0, dtype=np.int64)
            self.slabs = [KVSlab.empty(i, self.kv_width)
                          for i in range(self.n_layers)]

    def _plan(self, *, masked, prev_masked, prev_decoded,
              step: int) -> tuple[np.ndarray, bool]:
        return plan_compute_set(
            self.variant,
            masked=masked,
            prev_masked=prev_masked,
            prev_decoded=prev_decoded,
            prefill=self.prefill,
            step=step,
            seq_len=self.seq_len,
            gen_region=(len(self.prefill), self.seq_len),
            predefined_order=self.predefined_order,
        )

    def _next_cached(self, masked: frozenset[int], step: int) -> np.ndarray:
        kind = self.variant.kind
        if kind is VariantKind.NONE:
            return np.zeros(0, dtype=np.int64)
        if kind in (VariantKind.DECODE, VariantKind.PD):
            return _complement(masked, self.seq_len)
        if kind is VariantKind.PREFILL:
            return self.prefill
        # greedy: cache the complement of the next step's compute set, so
        # stale rows for still-masked positions are deliberately retained.
        # That compute set is kept and reused when step + 1 is planned.
        assert self.predefined_order is not None
        if step + 1 >= len(self.predefined_order):
            return np.zeros(0, dtype=np.int64)
        decoded = self.predefined_order[step]
        next_compute, next_refresh = self._plan(
            masked=masked - set(decoded), prev_masked=masked,
            prev_decoded=decoded, step=step + 1)
        self._planned = (step + 1, next_compute, next_refresh)
        return _complement(next_compute, self.seq_len)

    def plan_step(
        self,
        *,
        masked: Iterable[int],
        prev_masked: Iterable[int],
        prev_decoded: Iterable[int],
        step: int,
    ) -> ComputePlan:
        """Plan ``step``. Under greedy the compute set was already planned
        at the previous step, with that step's predefined decodes as
        ``prev_decoded``; only the masked-set check runs again."""
        masked_set = frozenset(int(p) for p in masked)
        if self._planned is not None and self._planned[0] == step:
            _check_shrinking(masked_set, frozenset(prev_masked))
            _, compute, refresh = self._planned
        else:
            compute, refresh = self._plan(
                masked=masked_set, prev_masked=prev_masked,
                prev_decoded=prev_decoded, step=step)
        if refresh:
            self.refresh()
        return build_layout(
            compute,
            self.cached_positions,
            self._next_cached(masked_set, step),
            self.seq_len,
            step=step,
            refresh_flag=refresh,
        )

    def commit(self, plan: ComputePlan, kv: Sequence[KVSlab]) -> None:
        """Gather the next cache from the slabs attention read.

        ``kv[layer]`` holds that layer's rows in the plan's layout order
        [cached ; fresh] (``ForwardResult.kv``); the next cache is one
        gather through ``plan.reorder_index`` per layer. The gathered rows
        are copies, so cached bytes survive any number of steps unchanged.
        """
        if len(kv) != self.n_layers:
            raise LayoutError(
                f"expected rows for {self.n_layers} layers, got {len(kv)}")
        for idx, slab in enumerate(kv):
            if not np.array_equal(slab.row_positions, plan.layout):
                raise LayoutError(
                    f"layer {idx}: rows are not in the plan's layout order")
        index = plan.reorder_index
        self.slabs = [KVSlab(layer=idx, keys=slab.keys[index],
                             values=slab.values[index],
                             row_positions=plan.next_cached_positions)
                      for idx, slab in enumerate(kv)]
        self.cached_positions = plan.next_cached_positions


def write_cache_debug(records, path) -> None:
    """Dump per-step cache layout as JSONL (step, cached, compute, refresh)."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps({
                "step": rec.step,
                "cached_positions": list(rec.cached_positions),
                "compute_set": list(rec.compute_set),
                "refresh_flag": rec.refresh,
            }) + "\n")
