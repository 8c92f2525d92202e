import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkvcache import (
    ConfigError,
    KVSlab,
    ModelConfig,
    attention,
    forward_full,
    forward_partial,
    init_weights,
    rope_rotate,
    rope_rows,
)
from dkvcache import model_core
from dkvcache.selftest import (check_partial_forward, check_rotary_reference,
                               served_cache)


def _weight_items(weights):
    """(name, array) for every parameter; ``wq``/``wk``/``wv`` are views of
    ``wqkv``, not parameters of their own."""
    yield "embedding", weights.embedding
    for i, layer in enumerate(weights.layers):
        for f in fields(layer):
            yield f"layer{i}.{f.name}", getattr(layer, f.name)
    yield "final_gain", weights.final_gain
    yield "head", weights.head


def naive_attention(q, k, v, scale, n_heads):
    """Float64 reference used as the attention oracle: one softmax per
    head and query row, normalised before the weighted value sum."""
    nq, width = q.shape
    dh = width // n_heads
    out = np.zeros((nq, width), dtype=np.float64)
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        keys, values = k[:, sl].astype(np.float64), v[:, sl].astype(np.float64)
        for i in range(nq):
            scores = keys @ q[i, sl].astype(np.float64) * scale
            scores -= scores.max()
            weights = np.exp(scores)
            weights /= weights.sum()
            out[i, sl] = weights @ values
    return out


class TestConfig:
    def test_valid(self, tiny_config):
        # constructing is the check: __post_init__ raises on a bad field
        assert ModelConfig(**vars(tiny_config)) == tiny_config

    @pytest.mark.parametrize("overrides,needle", [
        (dict(d_model=100), "d_model"),
        (dict(d_head=31, d_model=62), "even"),
        (dict(mask_token_id=128), "mask_token_id"),
        (dict(n_layers=0), "n_layers"),
        (dict(rope_base=-1.0), "rope_base"),
        (dict(rope_base=float("nan")), "rope_base"),
        (dict(rope_base=float("inf")), "rope_base"),
        (dict(weight_seed=-1), "weight_seed"),
    ])
    def test_invalid_names_invariant(self, overrides, needle):
        base = dict(n_layers=2, n_heads=2, d_model=64, d_head=32, d_ff=128,
                    vocab_size=128, mask_token_id=127, max_positions=512)
        base.update(overrides)
        with pytest.raises(ConfigError, match=needle):
            ModelConfig(**base)


class TestInitWeights:
    def test_deterministic_byte_identical(self, tiny_config):
        w1 = init_weights(tiny_config)
        w2 = init_weights(tiny_config)
        for (n1, a1), (n2, a2) in zip(_weight_items(w1), _weight_items(w2)):
            assert n1 == n2
            assert a1.tobytes() == a2.tobytes()

    def test_seed_sensitivity(self, tiny_config):
        other = replace(tiny_config, weight_seed=12)
        w1 = init_weights(tiny_config)
        w2 = init_weights(other)
        assert any(not np.array_equal(a1, a2)
                   for (_, a1), (_, a2) in zip(_weight_items(w1),
                                               _weight_items(w2)))

    def test_per_head_shape_audit(self):
        cfg = ModelConfig(n_layers=3, n_heads=4, d_model=128, d_head=32,
                          d_ff=256, vocab_size=64, mask_token_id=0,
                          max_positions=256)
        weights = init_weights(cfg)
        for layer in weights.layers:
            for mat in (layer.wq, layer.wk, layer.wv):
                per_head = mat.reshape(cfg.d_model, cfg.n_heads, -1)
                assert per_head.shape[2] == 32

    def test_weights_immutable(self, tiny_weights):
        with pytest.raises(ValueError):
            tiny_weights.embedding[0, 0] = 1.0

    def test_all_finite(self, tiny_weights):
        for _, arr in _weight_items(tiny_weights):
            assert np.isfinite(arr).all()

    def test_projections_are_views_of_wqkv(self, tiny_weights):
        layer = tiny_weights.layers[0]
        views = (layer.wq, layer.wk, layer.wv)
        np.testing.assert_array_equal(layer.wqkv, np.hstack(views))
        for mat in views:
            assert np.shares_memory(mat, layer.wqkv)
        for mat in (layer.wqkv, *views):
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0

    def test_each_parameter_stored_once(self, tiny_weights):
        weights, cfg = tiny_weights, tiny_weights.config
        arrays = [arr for _, arr in _weight_items(weights)]
        arrays += [mat for layer in weights.layers
                   for mat in (layer.wq, layer.wk, layer.wv)]
        bases = {}
        for arr in arrays:
            while arr.base is not None:
                arr = arr.base
            bases[id(arr)] = arr
        d, f, v, n = cfg.d_model, cfg.d_ff, cfg.vocab_size, cfg.n_layers
        params = v * d + n * (4 * d * d + 2 * d * f + 2 * d) + d + d * v
        assert sum(arr.nbytes for arr in bases.values()) == 4 * params


class TestRmsNorm:
    @pytest.mark.parametrize("width", [64, 96, 100, 128])
    def test_matches_mean_form(self, rng, width):
        # the reduce-and-divide mean gives np.mean's bits
        x = (rng.standard_normal((300, width))
             * 10.0 ** rng.uniform(-3, 3, (300, 1))).astype(np.float32)
        gain = rng.uniform(0.5, 1.5, width).astype(np.float32)
        mean = np.mean(np.square(x), axis=-1, keepdims=True)
        want = x * (1.0 / np.sqrt(mean + model_core._RMS_EPS)) * gain
        assert model_core._rms_norm(x, gain).tobytes() == want.tobytes()


class TestRope:
    def test_zero_position_identity(self, rng):
        states = rng.standard_normal((5, 8)).astype(np.float32)
        out = rope_rotate(states, rope_rows([0] * 5, 10000.0, 4))
        np.testing.assert_array_equal(out, states)

    def test_pair_norms_preserved(self, rng):
        states = rng.standard_normal((6, 16)).astype(np.float32)
        out = rope_rotate(states, rope_rows([3, 9, 100, 0, 7, 41], 10000.0, 8))
        before = np.hypot(states[:, 0::2], states[:, 1::2])
        after = np.hypot(out[:, 0::2], out[:, 1::2])
        np.testing.assert_allclose(after, before, atol=1e-6)

    def test_row_order_irrelevant(self, rng):
        a = rng.standard_normal((1, 8)).astype(np.float32)
        b = rng.standard_normal((1, 8)).astype(np.float32)
        fwd = rope_rotate(np.vstack([a, b]), rope_rows([3, 5], 10000.0, 4))
        rev = rope_rotate(np.vstack([b, a]), rope_rows([5, 3], 10000.0, 4))
        np.testing.assert_array_equal(fwd[0], rev[1])
        np.testing.assert_array_equal(fwd[1], rev[0])

    def test_position_out_of_range(self):
        # positions past the sequence are forward_partial's check
        with pytest.raises(ValueError, match="position out of range"):
            rope_rows([-1], 10000.0, 4)

    def test_rows_built_for_positions_read(self):
        # rows are built for the positions given only: a far position
        # gets one row, and small ones match the table's rows byte for byte
        far = rope_rows([10**12], 10000.0, 8)
        assert far.shape == (1, 4) and np.isfinite(far).all()
        positions = [7, 0, 3, 9, 3]
        assert (rope_rows(positions, 10000.0, 8).tobytes()
                == model_core._rope_table(10000.0, 8, 10)[positions].tobytes())

    def test_shape_mismatch_rejected(self, rng):
        states = rng.standard_normal((2, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="got 1 rotary rows for 2 rows"):
            rope_rotate(states, rope_rows([0], 10000.0, 8))
        with pytest.raises(ValueError, match="not a multiple of d_head 16"):
            rope_rotate(states, rope_rows([0, 1], 10000.0, 16))

    @pytest.mark.parametrize("n_heads", [1, 4, 8])
    def test_matches_float64_rotation(self, n_heads):
        ok, detail = check_rotary_reference(head_counts=(n_heads,),
                                            seeds=range(123, 124))
        assert ok, detail

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31), st.integers(0, 1000))
    def test_norm_preserved_property(self, seed, position):
        gen = np.random.default_rng(seed)
        states = gen.standard_normal((1, 8)).astype(np.float32)
        out = rope_rotate(states, rope_rows([position], 10000.0, 8))
        np.testing.assert_allclose(
            np.linalg.norm(out), np.linalg.norm(states), rtol=1e-5)


def _count_fallbacks(monkeypatch):
    """Wrap attention's max-shifted fallback; the list grows per call."""
    calls, fallback = [], model_core._shifted_exp2

    def counted(*args):
        calls.append(args)
        return fallback(*args)

    monkeypatch.setattr(model_core, "_shifted_exp2", counted)
    return calls


class TestAttention:
    def test_singleton_softmax(self, rng):
        q = rng.standard_normal((1, 4)).astype(np.float32)
        k = rng.standard_normal((1, 4)).astype(np.float32)
        v = rng.standard_normal((1, 4)).astype(np.float32)
        np.testing.assert_allclose(attention(q, k, v, 0.5), v, atol=1e-7)

    def test_identical_keys_average_values(self, rng):
        q = rng.standard_normal((1, 4)).astype(np.float32)
        key = rng.standard_normal((1, 4)).astype(np.float32)
        keys = np.vstack([key, key])
        values = rng.standard_normal((2, 4)).astype(np.float32)
        out = attention(q, keys, values, 0.5)
        np.testing.assert_allclose(out, values.mean(axis=0, keepdims=True),
                                   atol=1e-6)

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_matches_naive_reference(self, rng, n_heads):
        q = rng.standard_normal((4, 8)).astype(np.float32)
        k = rng.standard_normal((6, 8)).astype(np.float32)
        v = rng.standard_normal((6, 8)).astype(np.float32)
        out = attention(q, k, v, 1.0 / np.sqrt(8 / n_heads), n_heads)
        ref = naive_attention(q, k, v, 1.0 / np.sqrt(8 / n_heads), n_heads)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    @pytest.mark.parametrize("budget", [1, 2 * 4 * 6, 1 << 16])
    def test_head_groups_match_naive_reference(self, rng, monkeypatch, budget):
        # one head per group, a ragged 2 + 1 split, and all heads at once
        monkeypatch.setattr(model_core, "_SCORES_BUDGET", budget)
        q = rng.standard_normal((4, 12)).astype(np.float32)
        k = rng.standard_normal((6, 12)).astype(np.float32)
        v = rng.standard_normal((6, 12)).astype(np.float32)
        out = attention(q, k, v, 0.5, 3)
        np.testing.assert_allclose(out, naive_attention(q, k, v, 0.5, 3),
                                   atol=1e-6)

    @pytest.mark.parametrize("nq", [528, 14])
    def test_workload_shapes_match_naive_reference(self, rng, nq):
        # the perfbench shapes: 4 heads over 528 keys, all rows or a few
        q = rng.standard_normal((nq, 128)).astype(np.float32)
        k = rng.standard_normal((528, 128)).astype(np.float32)
        v = rng.standard_normal((528, 128)).astype(np.float32)
        scale = 1.0 / np.sqrt(32)
        np.testing.assert_allclose(attention(q, k, v, scale, 4),
                                   naive_attention(q, k, v, scale, 4), atol=1e-5)

    @pytest.mark.parametrize("nq,nk", [(528, 528), (14, 528), (3, 144)])
    def test_feature_major_keys(self, rng, nq, nk):
        # a store's [d, seq] key memory against the oracle and against the
        # same keys in C order, which BLAS reads through a strided view
        q = rng.standard_normal((nq, 128)).astype(np.float32)
        k = rng.standard_normal((nk, 128)).astype(np.float32)
        v = rng.standard_normal((nk, 128)).astype(np.float32)
        feature_major = np.ascontiguousarray(k.T).T
        out = attention(q, feature_major, v, 0.17, 4)
        np.testing.assert_allclose(out, naive_attention(q, k, v, 0.17, 4),
                                   atol=1e-5)
        np.testing.assert_allclose(out, attention(q, k, v, 0.17, 4),
                                   rtol=0, atol=1e-6)

    def test_weight_rows_stochastic(self, rng, monkeypatch):
        # one head over identity values: output row i is query i's weights.
        # With queries scaled so scores reach 1e4, exp2 of the raw scores
        # overflows float32; the max-shifted fallback keeps them finite.
        calls = _count_fallbacks(monkeypatch)
        q = rng.standard_normal((5, 9)).astype(np.float32)
        k = rng.standard_normal((9, 9)).astype(np.float32)
        big = np.float32(1e4 / np.abs(0.35 * q @ k.T).max())
        for queries in (q, q * big):
            weights = attention(queries, k, np.eye(9, dtype=np.float32), 0.35, 1)
            assert weights.shape == (5, 9)
            assert np.isfinite(weights).all() and (weights >= 0).all()
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
        assert len(calls) == 1

    def test_underflow_row_takes_stable_path(self, rng, monkeypatch):
        # query 0's base-2 scores are <= -200 against every key, so exp2
        # flushes its whole row to zero; the fallback shifts it by its max
        calls = _count_fallbacks(monkeypatch)
        q = rng.standard_normal((3, 4)).astype(np.float32)
        k = rng.standard_normal((6, 4)).astype(np.float32)
        v = rng.standard_normal((6, 4)).astype(np.float32)
        k[:, 0] = 1.0 + 0.1 * rng.random(6)
        q[0] = [-300.0, 0.0, 0.0, 0.0]
        assert (0.5 * np.log2(np.e) * (q[0] @ k.T) <= -200).all()
        out = attention(q, k, v, 0.5)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, naive_attention(q, k, v, 0.5, 1),
                                   atol=1e-5)
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.floats(1e-2, 1e4),
           st.integers(1, 8), st.integers(1, 40), st.sampled_from([1, 2, 4]))
    def test_score_magnitudes_match_naive_property(self, seed, magnitude, nq,
                                                   nk, n_heads):
        # scaled so the largest |score| is ``magnitude``: small scores take
        # the unshifted path, large ones the fallback; a score's float32
        # rounding grows with it, and so does the tolerance
        gen = np.random.default_rng(seed)
        q, k, v = (gen.standard_normal((n, 8)).astype(np.float32)
                   for n in (nq, nk, nk))
        dh = 8 // n_heads
        raw = max(np.abs(q[:, h:h + dh] @ k[:, h:h + dh].T).max()
                  for h in range(0, 8, dh))
        scale = magnitude / float(raw)
        out = attention(q, k, v, scale, n_heads)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(
            out, naive_attention(q, k, v, scale, n_heads), rtol=0,
            atol=np.abs(v).max() * (1e-6 + 1e-7 * magnitude))

    @pytest.mark.parametrize("n_compute", [528, 260, 14])
    def test_workload_passes_skip_fallback(self, toy_weights, monkeypatch,
                                           n_compute):
        # the perfbench shapes on the toy model: 528 keys, and a full pass,
        # a half-decoded pass or a greedy step's few rows. Every group's
        # row sums stay in range, so the unshifted path is what runs.
        def refuse(*args):
            raise AssertionError("attention took the max-shifted fallback")

        monkeypatch.setattr(model_core, "_shifted_exp2", refuse)
        gen = np.random.default_rng(7)
        mask = toy_weights.config.mask_token_id
        tokens = np.full(528, mask)
        tokens[:16 + 256] = gen.integers(0, mask, size=16 + 256)
        full = forward_full(tokens, toy_weights)
        cache = served_cache(full, np.arange(528 - n_compute))
        forward_partial(tokens, np.arange(528 - n_compute, 528), cache,
                        toy_weights)

    def test_peak_allocation_bounded(self, rng):
        # one reused [nq, nk] scores buffer plus the output, not one
        # [n_heads, nq, nk] array per softmax stage
        nq, nk, width = 256, 300, 128
        q, k, v = (rng.standard_normal((n, width)).astype(np.float32)
                   for n in (nq, nk, nk))
        attention(q, k, v, 0.17, 4)
        tracemalloc.start()
        try:
            attention(q, k, v, 0.17, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * nq * nk * 4 + nq * width * 4

    def test_empty_keys_rejected(self, rng):
        q = rng.standard_normal((1, 4)).astype(np.float32)
        empty = np.zeros((0, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="empty key set"):
            attention(q, empty, empty, 1.0)

    def test_key_value_row_mismatch_rejected(self, rng):
        q, k, v = (rng.standard_normal((n, 4)).astype(np.float32)
                   for n in (1, 3, 2))
        with pytest.raises(ValueError, match=r"keys \(3\) and values \(2\) "
                                             "row counts differ"):
            attention(q, k, v, 1.0)


class TestForward:
    def test_full_covers_all_positions(self, tiny_weights, rng):
        tokens = rng.integers(0, 100, size=12)
        result = forward_full(tokens, tiny_weights)
        assert result.logits.shape == (12, tiny_weights.config.vocab_size)
        for slab in result.fresh_kv:
            np.testing.assert_array_equal(slab.row_positions, np.arange(12))

    def test_full_is_partial_specialization(self, tiny_weights, rng):
        tokens = rng.integers(0, 100, size=10)
        full = forward_full(tokens, tiny_weights)
        for cache in (None, []):  # an empty list is no cache
            part = forward_partial(tokens, np.arange(10), cache, tiny_weights)
            np.testing.assert_array_equal(full.logits, part.logits)

    def test_kv_is_layout_order(self, tiny_weights, rng):
        # kv is the natural-order store: row p holds position p, the
        # served rows at the cached positions; fresh_kv copies the rest
        # out in compute-set order
        tokens = rng.integers(0, 100, size=8)
        full = forward_full(tokens, tiny_weights)
        cached_pos = np.array([2, 4, 5])
        compute = np.array([7, 0, 3, 1, 6])
        cache = served_cache(full, cached_pos)
        part = forward_partial(tokens, compute, cache, tiny_weights)
        for i, (slab, fresh) in enumerate(zip(part.kv, part.fresh_kv)):
            np.testing.assert_array_equal(slab.row_positions, np.arange(8))
            assert slab.keys[cached_pos].tobytes() == cache[i].keys.tobytes()
            assert (slab.values[cached_pos].tobytes()
                    == cache[i].values.tobytes())
            np.testing.assert_array_equal(fresh.row_positions, compute)
            assert not np.shares_memory(fresh.keys, slab.keys)
            assert slab.keys[compute].tobytes() == fresh.keys.tobytes()
            assert slab.values[compute].tobytes() == fresh.values.tobytes()

    def test_compact_cache_unchanged(self, tiny_weights, rng):
        # compact slabs are scattered into a new store, never written
        tokens = rng.integers(0, 100, size=8)
        cache = served_cache(forward_full(tokens, tiny_weights), [2, 4, 5])
        before = [(s.keys.tobytes(), s.values.tobytes(),
                   s.row_positions.tobytes()) for s in cache]
        part = forward_partial(tokens, [7, 0, 3, 1, 6], cache, tiny_weights)
        assert [(s.keys.tobytes(), s.values.tobytes(),
                 s.row_positions.tobytes()) for s in cache] == before
        assert not any(np.shares_memory(s.keys, c.keys)
                       for s, c in zip(part.kv, cache))

    def test_new_stores_keys_feature_major(self, tiny_weights, rng):
        # no cache, and a compact cache scattered into a new store
        tokens = rng.integers(0, 100, size=8)
        full = forward_full(tokens, tiny_weights)
        part = forward_partial(tokens, [7, 0, 3, 1, 6],
                               served_cache(full, [2, 4, 5]), tiny_weights)
        for result in (full, part):
            assert all(s.keys.T.flags.c_contiguous for s in result.kv)
            assert all(s.values.flags.c_contiguous for s in result.kv)

    def test_fused_projection_matches_separate(self, tiny_weights, rng):
        # layer 0's fresh K/V against separate wk/wv products and rotary
        cfg, layer = tiny_weights.config, tiny_weights.layers[0]
        tokens = rng.integers(0, 100, size=10)
        h = tiny_weights.embedding[tokens].astype(np.float64)
        x = (h / np.sqrt(np.mean(h * h, axis=-1, keepdims=True) + 1e-6)
             * layer.attn_gain).astype(np.float32)
        keys = rope_rotate(x @ layer.wk,
                           rope_rows(np.arange(10), cfg.rope_base, cfg.d_head))
        fresh = forward_full(tokens, tiny_weights).fresh_kv[0]
        np.testing.assert_allclose(fresh.keys, keys, rtol=0, atol=1e-6)
        np.testing.assert_allclose(fresh.values, x @ layer.wv, rtol=0, atol=1e-6)

    def test_rope_table_sized_by_sequence(self, tiny_weights, rng,
                                          monkeypatch):
        # one table row per sequence position, not per max_positions, and
        # one table lookup per pass, not one per layer
        sizes = []
        table = model_core._rope_table

        def spy(base, d_head, n_positions):
            sizes.append(n_positions)
            return table(base, d_head, n_positions)

        monkeypatch.setattr(model_core, "_rope_table", spy)
        tokens = rng.integers(0, 100, size=6)
        full = forward_full(tokens, tiny_weights)
        assert sizes == [6]
        forward_partial(tokens, [4, 0, 5], served_cache(full, [1, 2, 3]),
                        tiny_weights)
        assert sizes == [6, 6]

    def test_repeated_run_bit_identical(self, tiny_weights, rng):
        tokens = rng.integers(0, 100, size=10)
        a = forward_full(tokens, tiny_weights)
        b = forward_full(tokens, tiny_weights)
        assert a.logits.tobytes() == b.logits.tobytes()

    def test_oversize_sequence(self, tiny_weights):
        tokens = np.zeros(tiny_weights.config.max_positions + 1, dtype=np.int64)
        with pytest.raises(ValueError, match="max_positions"):
            forward_full(tokens, tiny_weights)

    def test_two_dimensional_tokens_rejected(self, tiny_weights):
        with pytest.raises(ValueError, match="tokens must be one-dimensional"):
            forward_partial(np.zeros((2, 3), dtype=np.int64), [0, 1, 2], None,
                            tiny_weights)

    def test_invalid_token_id(self, tiny_weights):
        with pytest.raises(ValueError, match="invalid token id"):
            forward_full(np.array([0, 5, 1000]), tiny_weights)

    @pytest.mark.parametrize("corrupt,message", [
        (lambda c, comp: (c[:1], comp), "layer count"),
        (lambda c, comp: ([c[0], KVSlab(0, c[1].keys, c[1].values,
                                        c[1].row_positions)], comp),
         "claims layer 0"),
        (lambda c, comp: ([KVSlab(0, c[0].keys[:1], c[0].values,
                                  c[0].row_positions), c[1]], comp),
         "row/position mismatch"),
        # a store's keys (one row per position) with compact values
        (lambda c, comp: ([KVSlab(0, np.vstack([c[0].keys] * 3), c[0].values,
                                  c[0].row_positions), c[1]], comp),
         "row/position mismatch"),
        (lambda c, comp: ([c[0], KVSlab(1, c[1].keys, c[1].values,
                                        np.array([1, 3]))], comp),
         "layers disagree"),
        (lambda c, comp: (c, np.array([0, 1, 3, 4, 5])), "overlapping"),
        (lambda c, comp: (c, np.array([0, 3, 4])), "incomplete"),
        (lambda c, comp: (c, np.array([-1, 3, 4, 5])), "out of range"),
        (lambda c, comp: (c, np.array([0, 3, 4, 6])), "out of range"),
    ], ids=["layer-count", "wrong-layer", "row-count", "store-values",
            "positions-disagree", "overlap", "incomplete", "negative",
            "at-seq-len"])
    def test_malformed_cache_rejected(self, tiny_weights, rng, corrupt,
                                      message):
        # a 6-token sequence with positions 1 and 2 cached on both layers
        tokens = rng.integers(0, 100, size=6)
        cache = served_cache(forward_full(tokens, tiny_weights), [1, 2])
        cache, compute = corrupt(cache, np.array([0, 3, 4, 5]))
        with pytest.raises(ValueError, match=message):
            forward_partial(tokens, compute, cache, tiny_weights)


class TestLogitRows:
    """``forward_partial(..., logit_rows=...)`` against the all-rows pass."""

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    @pytest.mark.parametrize("n_rows", [1, 2, 16, 256])
    def test_matches_all_rows_pass(self, tiny_weights, n_rows, cached):
        ok, detail = check_partial_forward(
            tiny_weights, cases=1, seq_range=(400, 401), seed=n_rows,
            cached=cached, logit_rows=(n_rows,))
        assert ok, detail

    def test_no_logit_rows(self, tiny_weights, rng):
        tokens = rng.integers(0, 100, size=6)
        part = forward_partial(tokens, np.arange(6), None, tiny_weights,
                               logit_rows=[])
        assert part.logits.shape == (0, tiny_weights.config.vocab_size)
        assert part.fresh_kv[0].n_rows == 6

    @pytest.mark.parametrize("rows", [[4], [-1], [0, 4]])
    def test_out_of_range_row_rejected(self, tiny_weights, rng, rows):
        # four compute rows: indices 0..3 are valid
        tokens = rng.integers(0, 100, size=4)
        with pytest.raises(ValueError, match="logit row out of range"):
            forward_partial(tokens, np.array([3, 0, 2, 1]), None,
                            tiny_weights, logit_rows=rows)
