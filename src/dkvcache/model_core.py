"""Minimal bidirectional transformer with rotary positions.

The model exists to exercise cache scheduling, so it supports two entry
points: a full forward pass, and a partial pass that recomputes hidden
states only for a chosen compute set while attending over cached key/value
rows for the remaining positions, and that can restrict the last layer's
tail and the vocab head to the rows whose logits are read. Attention
reads one natural-order store per layer, row p holding position p: the
pass writes the compute set's fresh rows at their positions and leaves
every other row as it was. Keys are held as [d_model, seq] memory, so
each head's keys are one contiguous block. Cached keys keep the rotary
rotation from the step that produced them, which makes attention
position-correct whatever step wrote a row.

Everything is float32. Forward passes are deterministic: identical inputs
produce bit-identical outputs as long as the BLAS thread count does not
change between calls.

``forward_partial`` checks a cache's structure and the cached/compute
partition as it opens the store, once per call, but not row values:
non-finite numbers can only enter through the config, which rejects them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "ModelConfig",
    "LayerWeights",
    "ModelWeights",
    "KVSlab",
    "ForwardResult",
    "init_weights",
    "rope_rows",
    "rope_rotate",
    "attention",
    "forward_full",
    "forward_partial",
]

_RMS_EPS = 1e-6


class ConfigError(ValueError):
    """A configuration invariant does not hold."""


def check_types(config, types: dict) -> None:
    """Raise ``ConfigError`` naming the first field of ``config`` whose
    value is not an instance of ``types[name]``; a bool is not a number."""
    for name, allowed in types.items():
        value = getattr(config, name)
        if not isinstance(value, allowed) or isinstance(value, bool):
            raise ConfigError(f"'{name}' has type {type(value).__name__}")


_INT_FIELDS = ("n_layers", "n_heads", "d_model", "d_head", "d_ff",
               "vocab_size", "mask_token_id", "max_positions", "weight_seed")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the toy transformer."""

    n_layers: int
    n_heads: int
    d_model: int
    d_head: int
    d_ff: int
    vocab_size: int
    mask_token_id: int
    max_positions: int
    rope_base: float = 10000.0
    weight_seed: int = 0

    def __post_init__(self) -> None:
        # a float is not a count
        check_types(self, {**dict.fromkeys(_INT_FIELDS, int),
                           "rope_base": (int, float)})
        for name in ("n_layers", "n_heads", "d_model", "d_head", "d_ff",
                     "vocab_size", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model != self.n_heads * self.d_head:
            raise ConfigError(
                f"d_model ({self.d_model}) != n_heads ({self.n_heads}) "
                f"* d_head ({self.d_head})")
        if self.d_head % 2 != 0:
            raise ConfigError(
                f"d_head must be even for rotary pairing, got {self.d_head}")
        if not 0 <= self.mask_token_id < self.vocab_size:
            raise ConfigError(
                f"mask_token_id ({self.mask_token_id}) must be "
                f"< vocab_size ({self.vocab_size})")
        if self.weight_seed < 0:
            raise ConfigError(f"weight_seed must be >= 0, got {self.weight_seed}")
        if not (math.isfinite(self.rope_base) and self.rope_base > 0):
            raise ConfigError(f"rope_base must be finite and > 0, got {self.rope_base}")


@dataclass(frozen=True)
class LayerWeights:
    """One layer's parameters. ``wqkv`` is the Q/K/V projection, the one
    stored ``[wq | wk | wv]`` matrix of shape [d_model, 3 * d_model], so
    each layer projects with one matmul; ``wq``, ``wk`` and ``wv`` are
    read-only views of its column blocks."""

    wqkv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    attn_gain: np.ndarray
    ffn_gain: np.ndarray

    def _block(self, i: int) -> np.ndarray:
        d = self.wqkv.shape[0]
        return self.wqkv[:, i * d:(i + 1) * d]

    @property
    def wq(self) -> np.ndarray:
        return self._block(0)

    @property
    def wk(self) -> np.ndarray:
        return self._block(1)

    @property
    def wv(self) -> np.ndarray:
        return self._block(2)


@dataclass(frozen=True)
class ModelWeights:
    """Immutable model parameters; arrays are write-protected after init."""

    config: ModelConfig
    embedding: np.ndarray
    layers: tuple[LayerWeights, ...]
    final_gain: np.ndarray
    head: np.ndarray


@dataclass
class KVSlab:
    """Per-layer key/value rows, in one of two shapes.

    Compact: row ``i`` holds original position ``row_positions[i]``.
    Store: ``keys`` and ``values`` have one row per sequence position in
    natural order, row ``p`` holding position ``p``, and ``row_positions``
    lists the positions whose rows are valid. A store that
    ``forward_partial`` allocates keeps its keys feature-major: ``keys``
    is the [seq, d_model] transpose of a C-order [d_model, seq] array, so
    each head's keys are one contiguous block and a fresh key is written
    as a column of it. Keys already carry the rotary rotation for their
    original position.
    """

    layer: int
    keys: np.ndarray
    values: np.ndarray
    row_positions: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.row_positions.shape[0])


@dataclass
class ForwardResult:
    """Logits for the logit rows plus, per layer, the natural-order store
    attention read. Every row of it is valid, so its ``row_positions`` is
    every position. A store the caller passed in is written in place, so
    ``kv`` is that store and a later pass on it rewrites its rows.
    """

    logits: np.ndarray
    kv: list[KVSlab]
    compute_set: np.ndarray

    @property
    def fresh_kv(self) -> list[KVSlab]:
        """The rows computed this call, per layer, in compute-set order:
        copies of the store's rows at the compute set."""
        comp = self.compute_set
        return [KVSlab(layer=s.layer, keys=s.keys[comp], values=s.values[comp],
                       row_positions=comp) for s in self.kv]


def _uniform(rng: np.random.Generator, d_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / math.sqrt(d_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def init_weights(config: ModelConfig) -> ModelWeights:
    """Deterministically initialize weights from (config, weight_seed).

    Matrices are drawn uniformly in [-1/sqrt(d_in), +1/sqrt(d_in)]; norm
    gains start at one. The draw order is fixed, so identical inputs give
    byte-identical weights.
    """
    rng = np.random.default_rng(config.weight_seed)
    d, f, v = config.d_model, config.d_ff, config.vocab_size
    embedding = _freeze(_uniform(rng, d, (v, d)))
    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerWeights(
            # wq, wk and wv, drawn in that order
            wqkv=_freeze(np.concatenate(
                [_uniform(rng, d, (d, d)) for _ in range(3)], axis=1)),
            wo=_freeze(_uniform(rng, d, (d, d))),
            w1=_freeze(_uniform(rng, d, (d, f))),
            w2=_freeze(_uniform(rng, f, (f, d))),
            attn_gain=_freeze(np.ones(d, dtype=np.float32)),
            ffn_gain=_freeze(np.ones(d, dtype=np.float32)),
        ))
    head = _freeze(_uniform(rng, d, (d, v)))
    final_gain = _freeze(np.ones(d, dtype=np.float32))
    return ModelWeights(
        config=config,
        embedding=embedding,
        layers=tuple(layers),
        final_gain=final_gain,
        head=head,
    )


def _rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    out = np.square(x)
    # the mean as np.mean computes it, without its Python wrapper
    mean = np.add.reduce(out, axis=-1, keepdims=True) / np.float32(x.shape[-1])
    scale = 1.0 / np.sqrt(mean + _RMS_EPS)
    np.multiply(x, scale, out=out)
    out *= gain
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximate GELU, computed in place in ``x``."""
    inner = 0.044715 * x
    inner *= x
    inner *= x
    inner += x
    inner *= 0.7978845608028654
    np.tanh(inner, out=inner)
    inner += 1.0
    x *= 0.5
    x *= inner
    return x


def rope_rows(positions, base: float, d_head: int) -> np.ndarray:
    """Complex64 rotary rows for ``positions``, [len(positions), d_head // 2].

    With angle ``a = p * base**(-2i/d_head)``, entry i of position ``p``'s
    row is ``cos a + i sin a``, its parts the float32 roundings of the
    float64 cos and sin, so rotating the pair (2i, 2i+1) read as one
    complex number is one complex multiply; any position >= 0 has a row.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and positions.min() < 0:
        raise ValueError("position out of range: negative position id")
    inv_freq = base ** (-np.arange(d_head // 2, dtype=np.float64) * (2.0 / d_head))
    angles = positions.astype(np.float64)[:, None] * inv_freq[None, :]
    return (np.cos(angles) + 1j * np.sin(angles)).astype(np.complex64)


@functools.lru_cache(maxsize=8)
def _rope_table(base: float, d_head: int, n_positions: int) -> np.ndarray:
    """Read-only ``rope_rows`` of positions 0 .. n_positions - 1."""
    return _freeze(rope_rows(np.arange(n_positions), base, d_head))


def rope_rotate(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rotate each interleaved head pair (dims 2i, 2i+1) of ``states`` row
    ``r`` by ``rows[r]``, complex rotary rows from ``rope_rows``.

    ``states`` is [n, heads * d_head] with ``rows`` [n, d_head // 2]; the
    same kernel serves queries and keys so cached and fresh rows stay
    mutually consistent, and one call rotates a [q | k] block as
    ``2 * n_heads`` heads. The result is a new C-order float32 array: a
    copy of ``states`` whose pairs, viewed as complex64, are multiplied in
    place by the rows, broadcast over heads; ``states`` is left unchanged.
    """
    (n, width), half = states.shape, rows.shape[1]
    if rows.shape[0] != n:
        raise ValueError(f"got {rows.shape[0]} rotary rows for {n} rows")
    if width % (2 * half) != 0:
        raise ValueError(f"state width {width} not a multiple of d_head {2 * half}")
    out = np.array(states, dtype=np.float32, order="C")
    pairs = out.view(np.complex64).reshape(n, width // (2 * half), half)
    pairs *= rows[:, None, :]
    return out


# Scores buffer budget in elements: small query sets run several heads per
# batched call (fewer numpy calls), large ones one head at a time.
_SCORES_BUDGET = 1 << 16
# Row sums of exp2(raw scores) accepted without a max shift: every weight
# is finite, and each row's largest (>= sum / n_keys) is a normal float.
_SUM_RANGE = (2.0 ** -60, 2.0 ** 60)


def _shifted_exp2(q, k, scores, ones):
    """The stable path for a head group whose row sums left
    ``_SUM_RANGE``: recompute the base-2 scores into ``scores``, subtract
    each row's max, exponentiate in place and return the row sums."""
    np.matmul(q, k, out=scores)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp2(scores, out=scores)
    return scores @ ones


def attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    scale: float,
    n_heads: int = 1,
) -> np.ndarray:
    """Bidirectional softmax attention over all key rows.

    Rows of ``queries``/``keys``/``values`` are full-width vectors split
    into ``n_heads`` column slices. Each head's keys are read as a
    [d_head, n_keys] block of ``keys.T``, a view in either layout: one
    contiguous block when ``keys`` is a feature-major store, a strided one
    that BLAS reads transposed when ``keys`` is C-order. The two layouts
    agree to rounding, not always to the bit. The queries are multiplied
    once by ``scale * log2(e)``, so the scores are base 2. Heads run in
    groups through one reused [group, n_queries, n_keys] scores buffer of
    at most ``_SCORES_BUDGET`` elements, or one head when a single head's
    scores are larger. Each group's scores are raised to ``exp2`` in place
    with no max shift, and their row sums taken as one mat-vec against
    ones; a group with any row sum outside ``_SUM_RANGE`` (overflow, or
    underflow) recomputes its scores and takes the max-shifted path. Each
    group's unnormalised output is written straight into its columns of
    the result, then divided by its row sums, so each output row is a
    convex combination of value rows. There is no causal mask.
    """
    if keys.shape[0] == 0:
        raise ValueError("empty key set")
    if keys.shape[0] != values.shape[0]:
        raise ValueError(
            f"keys ({keys.shape[0]}) and values ({values.shape[0]}) row "
            "counts differ")
    nq, width = queries.shape
    nk = keys.shape[0]
    dh = width // n_heads
    group = max(1, min(n_heads, _SCORES_BUDGET // max(1, nq * nk)))
    dtype = np.result_type(queries, keys, values)
    buf = np.empty((group, nq, nk), dtype=dtype)
    out = np.empty((nq, width), dtype=dtype)
    ones = np.ones(nk, dtype=dtype)
    # per-head views: [heads, rows, dims], keys as [heads, dims, rows]
    q = (queries * np.float32(scale * math.log2(math.e))
         ).reshape(nq, n_heads, dh).transpose(1, 0, 2)
    k = keys.T.reshape(n_heads, dh, nk)
    v = values.reshape(nk, n_heads, dh).transpose(1, 0, 2)
    o = out.reshape(nq, n_heads, dh).transpose(1, 0, 2)
    for first in range(0, n_heads, group):
        heads = slice(first, min(first + group, n_heads))
        scores = buf[:heads.stop - first]
        np.matmul(q[heads], k[heads], out=scores)
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp2(scores, out=scores)
            sums = scores @ ones
        if sums.size and not (_SUM_RANGE[0] <= sums.min()
                              and sums.max() <= _SUM_RANGE[1]):
            sums = _shifted_exp2(q[heads], k[heads], scores, ones)
        np.matmul(scores, v[heads], out=o[heads])
        o[heads] /= sums[..., None]
    return out


def _validate_tokens(tokens: np.ndarray, config: ModelConfig) -> None:
    if tokens.ndim != 1:
        raise ValueError(f"tokens must be one-dimensional, got shape {tokens.shape}")
    if tokens.shape[0] > config.max_positions:
        raise ValueError(
            f"sequence length {tokens.shape[0]} exceeds max_positions "
            f"{config.max_positions}")
    if tokens.shape[0] and (tokens.min() < 0 or tokens.max() >= config.vocab_size):
        raise ValueError("invalid token id: outside [0, vocab_size)")


def _open_store(cache: list[KVSlab] | None, compute_set: np.ndarray,
                seq_len: int, config: ModelConfig) -> list[KVSlab]:
    """Check ``cache`` and return every layer's natural-order store.

    Before any indexing, the layer count and that cached and compute
    positions partition ``range(seq_len)`` (ranges first, then one
    O(seq_len) count); ``None`` or ``[]`` is no cache. Then one pass checks
    each slab and opens it: one row per cached position is compact, its
    rows scattered into new arrays at their positions; otherwise
    ``seq_len`` rows are a store, used as it is. New keys are the
    transpose of a C-order [width, seq_len] array (see ``KVSlab``); new
    values are C-order [seq_len, width].
    """
    if cache and len(cache) != config.n_layers:
        raise ValueError(f"cache layer count mismatch: got {len(cache)}, "
                         f"expected {config.n_layers}")
    cached = cache[0].row_positions if cache else np.zeros(0, dtype=np.int64)
    combined = np.concatenate([cached, compute_set])
    if combined.size and (combined.min() < 0 or combined.max() >= seq_len):
        raise ValueError(f"position out of range: outside [0, {seq_len})")
    if (np.bincount(combined, minlength=seq_len) > 1).any():
        raise ValueError("overlapping cached and compute positions")
    if combined.size != seq_len:
        raise ValueError(
            "incomplete split: cached and compute positions must partition "
            "the sequence")
    n, width = cached.shape[0], config.d_model
    everywhere, store = np.arange(seq_len), []
    for idx in range(config.n_layers):
        slab = cache[idx] if cache else None
        rows = n if slab is None else slab.keys.shape[0]
        if slab is not None:
            if slab.layer != idx:
                raise ValueError(
                    f"cache slab at index {idx} claims layer {slab.layer}")
            if rows not in (n, seq_len) or slab.values.shape[0] != rows:
                raise ValueError(f"layer {idx}: cache row/position mismatch "
                                 f"(keys {rows}, values "
                                 f"{slab.values.shape[0]}, positions {n})")
            # the engine's slabs share one positions array: no comparison
            if (slab.row_positions is not cached
                    and not np.array_equal(slab.row_positions, cached)):
                raise ValueError(
                    "cache row/position mismatch: layers disagree on cached "
                    "positions")
        if rows == n:
            keys = np.empty((width, seq_len), dtype=np.float32).T
            values = np.empty((seq_len, width), dtype=np.float32)
            if slab is not None:
                keys[cached], values[cached] = slab.keys, slab.values
        else:
            keys, values = slab.keys, slab.values
        store.append(KVSlab(idx, keys, values, everywhere))
    return store


def _write_fresh(store: KVSlab, positions, keys, values) -> None:
    """Write fresh rows into ``store``: row ``i`` at ``positions[i]`` (a
    column of a feature-major key store's memory)."""
    store.keys[positions], store.values[positions] = keys, values


def forward_partial(
    tokens,
    compute_set,
    cache: list[KVSlab] | None,
    weights: ModelWeights,
    logit_rows=None,
) -> ForwardResult:
    """Forward pass over the compute set only, attending over every position.

    ``compute_set`` is an ordered position list; keys and values are
    produced for exactly those rows, in that order, in every layer. Per
    layer one matmul against ``wqkv`` projects queries, keys and values,
    and one ``rope_rotate`` call rotates the [q | k] block by the compute
    set's rotary rows, gathered once per call, after the range check, from
    a table of ``len(tokens)`` rows. The fresh keys and values are written
    into the layer's natural-order store at their positions, and attention
    reads the whole store. A store slab in ``cache`` is that store, written
    in place; compact slabs are scattered into a new store once and left
    unchanged; with no cache the new store is all fresh rows. The cached
    rows must have been rotated with their original positions.

    ``logit_rows`` indexes the compute set and picks the rows that get
    logits, in that order; ``None`` means every compute row. Only those
    rows run the last layer's attention, output projection, feed-forward,
    final norm and head, since no later layer reads the others' hidden
    states. An index outside the compute set raises ``ValueError``.

    This is the one place a cached/compute split is checked, before any
    indexing; cached row values are trusted.
    """
    config = weights.config
    tokens = np.asarray(tokens, dtype=np.int64)
    _validate_tokens(tokens, config)
    seq_len = tokens.shape[0]
    comp = np.asarray(compute_set, dtype=np.int64)
    if logit_rows is not None:
        logit_rows = np.asarray(logit_rows, dtype=np.int64)
        if logit_rows.ndim != 1 or logit_rows.size and (
                logit_rows.min() < 0 or logit_rows.max() >= comp.shape[0]):
            raise ValueError(
                f"logit row out of range: outside [0, {comp.shape[0]})")

    d = config.d_model
    store = _open_store(cache, comp, seq_len, config)
    rot = _rope_table(float(config.rope_base), config.d_head, seq_len)[comp]
    h = weights.embedding[tokens[comp]]
    scale = 1.0 / math.sqrt(config.d_head)
    last = len(weights.layers) - 1
    for idx, (layer, kv) in enumerate(zip(weights.layers, store)):
        qkv = _rms_norm(h, layer.attn_gain) @ layer.wqkv
        qk = rope_rotate(qkv[:, :2 * d], rot)
        _write_fresh(kv, comp, qk[:, d:], qkv[:, 2 * d:])
        queries = qk[:, :d]
        if idx == last and logit_rows is not None:
            queries, h = queries[logit_rows], h[logit_rows]
        h += attention(queries, kv.keys, kv.values, scale,
                       config.n_heads) @ layer.wo
        h += _gelu(_rms_norm(h, layer.ffn_gain) @ layer.w1) @ layer.w2
    logits = _rms_norm(h, weights.final_gain) @ weights.head
    return ForwardResult(logits=logits, kv=store, compute_set=comp)


def forward_full(tokens, weights: ModelWeights) -> ForwardResult:
    """Full bidirectional pass: every position computed, natural order."""
    tokens = np.asarray(tokens, dtype=np.int64)
    return forward_partial(tokens, np.arange(tokens.shape[0]), None, weights)
