import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkvcache import (
    CacheEngine,
    CacheVariant,
    KVSlab,
    Remasking,
    SamplerConfig,
    VariantKind,
    WindowCenter,
    forward_full,
    forward_partial,
    generate,
    scatter_outputs,
)
from dkvcache import init_weights, model_core, sampler as sampler_mod
from dkvcache.cache_engine import ComputePlan
from dkvcache.selftest import (_TINY, LOGIT_TOL, check_kept_rows,
                               naive_next_cache, served_cache)


def make_slab(layer, positions, width=4, seed=0):
    rng = np.random.default_rng(seed + 100 * layer)
    positions = np.asarray(positions, dtype=np.int64)
    return KVSlab(
        layer=layer,
        keys=rng.random((len(positions), width), dtype=np.float32),
        values=rng.random((len(positions), width), dtype=np.float32),
        row_positions=positions,
    )


def plan(compute, cached, next_cached):
    return ComputePlan(*(np.asarray(p, dtype=np.int64)
                         for p in (compute, cached, next_cached)), False)


def served_step(weights, tokens, cached, compute, next_cached):
    """Commit a full pass keeping ``cached``, run the partial pass over
    ``compute`` on the engine's store, then commit ``next_cached``.
    Returns the engine, the partial pass and two references made before
    the store was written: the served rows, and the same partial pass on
    a compact cache of them."""
    seq = len(tokens)
    full = forward_full(tokens, weights)
    served = served_cache(full, cached)
    reference = forward_partial(tokens, compute, served, weights)
    engine = CacheEngine(CacheVariant.parse("decode"), seq_len=seq)
    engine.commit(plan(np.arange(seq), [], cached), full.kv)
    part = forward_partial(tokens, compute, engine.slabs, weights)
    engine.commit(plan(compute, cached, next_cached), part.kv)
    return engine, part, served, reference


def row_bytes(slab, position):
    """``position``'s (keys, values) row bytes in a compact slab or a store."""
    compact = slab.keys.shape[0] == slab.n_rows
    row = list(slab.row_positions).index(position) if compact else position
    return slab.keys[row].tobytes(), slab.values[row].tobytes()


class TestCacheVariant:
    @pytest.mark.parametrize("text,expected", [
        ("none", "none"),
        ("decode", "decode(N=inf)"),
        ("decode:8", "decode(N=8)"),
        ("decode:inf", "decode(N=inf)"),
        ("greedy:2:4", "greedy(N=2,w=4,center=previous)"),
        ("greedy:2:4:current", "greedy(N=2,w=4,center=current)"),
        ("prefill", "prefill"),
        ("pd:4", "pd(N=4)"),
    ])
    def test_parse_describe(self, text, expected):
        assert CacheVariant.parse(text).describe() == expected

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown cache variant"):
            CacheVariant.parse("decoe:8")

    def test_refresh_interval_bound(self):
        with pytest.raises(ValueError, match="refresh_interval"):
            CacheVariant(VariantKind.DECODE, refresh_interval=0)

    @pytest.mark.parametrize("params,error", [
        (dict(kind=VariantKind.NONE, refresh_interval=4),
         "none takes no refresh_interval"),
        (dict(kind=VariantKind.PREFILL, refresh_interval=4),
         "prefill takes no refresh_interval"),
        (dict(kind=VariantKind.GREEDY, window_size=-1),
         "window_size must be >= 0, got -1"),
        (dict(kind=VariantKind.DECODE, window_size=2), "decode takes no window"),
        (dict(kind=VariantKind.PD, window_center=WindowCenter.CURRENT),
         "pd takes no window"),
    ], ids=["none-interval", "prefill-interval", "negative-window",
            "decode-window", "pd-window-center"])
    def test_constructor_rejects(self, params, error):
        # the class's own checks, for a variant built without ``parse``
        with pytest.raises(ValueError, match=error):
            CacheVariant(**params)

    @pytest.mark.parametrize("text,error", [
        ("prefill:4", "prefill takes no refresh_interval"),
        ("none:3", "none takes no refresh_interval"),
        ("decode:8:4", "decode takes no window"),
        ("pd:2:0:current", "pd takes no window"),
        ("greedy:2:4:current:x", "surplus parameters 'x'"),
        # present but equal to the default still does nothing
        ("decode:8:0", "decode takes no window"),
        ("pd:inf:0", "pd takes no window"),
        ("none:inf", "none takes no refresh_interval"),
        ("prefill:inf", "prefill takes no refresh_interval"),
    ])
    def test_parse_rejects_parameters_that_do_nothing(self, text, error):
        with pytest.raises(ValueError, match=error):
            CacheVariant.parse(text)


class TestGreedyWindow:
    """Greedy's window as ``plan_step`` applies it: step 1 computes step 0's
    decodes, step 1's decodes and ``[c - ceil(w/2), c + floor(w/2)]``
    around each centre c, clipped to the generation region."""

    @staticmethod
    def step1_compute(window_size, decoded, upcoming, *, prompt_len=0,
                      center=WindowCenter.PREVIOUS, seq_len=16):
        engine = CacheEngine(
            CacheVariant(VariantKind.GREEDY, window_size=window_size,
                         window_center=center),
            seq_len=seq_len, prompt_len=prompt_len,
            predefined_order=[decoded, upcoming])
        masked = np.arange(seq_len) >= prompt_len
        step0 = engine.plan_step(masked=masked, step=0)
        engine.commit(step0, [make_slab(0, np.arange(seq_len))])
        masked[list(decoded)] = False
        return engine.plan_step(masked=masked, step=1).compute_set.tolist()

    def test_center_window(self):
        assert self.step1_compute(4, (5,), (10,)) == [3, 4, 5, 6, 7, 10]

    def test_boundary_clip(self):
        # the window stops at the sequence end
        assert self.step1_compute(4, (15,), (12,)) == [12, 13, 14, 15]

    def test_union_of_centers(self):
        assert self.step1_compute(2, (5, 6), (1,)) == [1, 4, 5, 6, 7]

    def test_zero_window(self):
        assert self.step1_compute(0, (5,), (9,)) == [5, 9]

    def test_clip_to_region_start(self):
        # the window never reaches into the prompt
        assert self.step1_compute(4, (4,), (9,), prompt_len=4) == [4, 5, 6, 9]

    def test_current_center(self):
        assert self.step1_compute(2, (3,), (10,),
                                  center=WindowCenter.CURRENT) == [3, 9, 10, 11]

    def test_negative_window(self):
        with pytest.raises(ValueError, match="window_size must be >= 0"):
            CacheVariant(VariantKind.GREEDY, window_size=-2)
        with pytest.raises(ValueError, match="window_size must be >= 0"):
            CacheVariant.parse("greedy:4:-2")


class TestPlanComputeSet:
    """``CacheEngine.plan_step`` refusals; the per-step rule of every variant
    is ``test_greedy_plan.test_plans_match_reference``."""

    def test_greedy_needs_predefined_order(self):
        with pytest.raises(ValueError, match="predefined"):
            CacheEngine(CacheVariant.parse("greedy"), seq_len=4)

    def test_monotone_mask_violation(self):
        # position 9 is unmasked at step 0, so step 0's commit keeps it;
        # masking it again at step 1 would serve a masked row from cache
        engine = CacheEngine(CacheVariant.parse("decode"), seq_len=10)
        masked = np.zeros(10, dtype=bool)
        masked[1] = True
        step0 = engine.plan_step(masked=masked, step=0)
        engine.commit(step0, [make_slab(0, np.arange(10))])
        masked[9] = True
        with pytest.raises(ValueError, match="masked position 9 is served"):
            engine.plan_step(masked=masked, step=1)

    def test_mask_shape_rejected(self):
        engine = CacheEngine(CacheVariant.parse("decode"), seq_len=10)
        with pytest.raises(ValueError, match=r"bool mask of 10 positions, "
                                             r"got shape \(9,\)"):
            engine.plan_step(masked=np.zeros(9, dtype=bool), step=0)


class TestNaturalOrderStore:
    """The layout a step attends over: one natural-order store per layer,
    row p holding position p, written in place by each pass."""

    def test_worked_eight_token_example(self):
        # cached [2,4,5]; 7 was revealed last step, so it is recomputed
        # once more and then kept: compute [0,1,3,6,7], next [2,4,5,7]
        engine = CacheEngine(CacheVariant.parse("decode"), seq_len=8)
        engine.commit(plan(range(8), [], [2, 4, 5]), [make_slab(0, range(8))])
        masked = np.isin(np.arange(8), [0, 1, 3, 6])
        step = engine.plan_step(masked=masked, step=1)
        assert list(step.compute_set) == [0, 1, 3, 6, 7]
        assert list(step.cached_positions) == [2, 4, 5]
        assert list(step.next_cached_positions) == [2, 4, 5, 7]
        assert step.reorder_index is step.next_cached_positions

    def test_empty_cache_degenerate(self, tiny_weights, rng):
        # no cache: a new store of fresh rows only, every position valid
        tokens = rng.integers(0, 100, size=6)
        result = forward_partial(tokens, np.arange(6), None, tiny_weights)
        full = forward_full(tokens, tiny_weights)
        engine = CacheEngine(CacheVariant.parse("decode"), seq_len=6)
        engine.commit(plan(range(6), [], [0, 3]), result.kv)
        for layer, slab in enumerate(engine.slabs):
            assert slab.keys is result.kv[layer].keys
            assert list(slab.row_positions) == [0, 3]
            for pos in range(6):
                assert row_bytes(result.kv[layer], pos) == row_bytes(
                    full.kv[layer], pos)

    def test_missing_next_position(self, tiny_weights):
        # the commit trusts its plan; the next pass's partition check
        # refuses a kept position outside the sequence
        tokens = np.array([1, 2, 3])
        engine = CacheEngine(CacheVariant.parse("decode"), seq_len=3)
        engine.commit(plan(range(3), [], [5]),
                      forward_full(tokens, tiny_weights).kv)
        with pytest.raises(ValueError, match="out of range"):
            forward_partial(tokens, [0, 1, 2], engine.slabs, tiny_weights)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31))
    def test_kept_rows_match_naive_reference(self, tiny_weights, seed):
        ok, detail = check_kept_rows(tiny_weights, cases=1,
                                     seq_range=(2, 33), seed=seed)
        assert ok, detail

    def test_naive_reference_catches_swapped_index(self):
        # the oracle above has teeth: a store whose first two fresh rows
        # were written under each other's positions fails the reference
        cached = make_slab(0, [2, 4, 5])
        fresh = make_slab(0, [0, 1, 3, 6, 7], seed=9)
        swapped = KVSlab(0, fresh.keys, fresh.values, np.array([1, 0, 3, 6, 7]))
        kept = np.array([0, 2, 4, 5, 7])
        ref_k, ref_v = naive_next_cache([cached, fresh], kept, 8)
        for written, matches in ((fresh, True), (swapped, False)):
            store = make_slab(0, range(8), seed=3)
            for slab in (cached, written):
                model_core._write_fresh(store, slab.row_positions, slab.keys,
                                        slab.values)
            assert np.array_equal(store.keys[kept], ref_k) is matches
            assert np.array_equal(store.values[kept], ref_v) is matches


class TestKeptRows:
    """What a commit keeps: the store's rows at the next cached positions,
    in place, with no row moved."""

    def test_identity_prefix_keeps_cache(self, tiny_weights, rng):
        tokens = rng.integers(0, 100, size=4)
        engine, _, served, _ = served_step(tiny_weights, tokens, [1, 3],
                                           [0, 2], [1, 3])
        for layer, slab in enumerate(engine.slabs):
            assert list(slab.row_positions) == [1, 3]
            for pos in (1, 3):
                assert row_bytes(slab, pos) == row_bytes(served[layer], pos)

    def test_worked_example_positions(self, tiny_weights, rng):
        tokens = rng.integers(0, 100, size=8)
        engine, part, served, reference = served_step(
            tiny_weights, tokens, [2, 4, 5], [0, 1, 3, 6, 7], [2, 4, 5, 7])
        for layer, slab in enumerate(engine.slabs):
            assert slab.keys is part.kv[layer].keys  # no row moved
            assert list(slab.row_positions) == [2, 4, 5, 7]
            assert row_bytes(slab, 7) == row_bytes(reference.kv[layer], 7)
            for pos in (2, 4, 5):
                assert row_bytes(slab, pos) == row_bytes(served[layer], pos)


def layer0_rows(weights, tokens):
    """Float64 layer-0 keys and values of ``tokens`` at positions 0 ..
    len - 1: embedding, RMS norm times ``attn_gain``, ``wk``/``wv``, and
    each key pair (2i, 2i + 1) of a head turned by ``p * base**(-2i /
    d_head)``, computed here rather than by ``rope_rows``."""
    cfg, layer = weights.config, weights.layers[0]
    x = weights.embedding[tokens].astype(np.float64)
    x = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)
    x = x * layer.attn_gain
    keys, values = x @ layer.wk.astype(np.float64), x @ layer.wv.astype(np.float64)
    half = cfg.d_head // 2
    angles = (np.arange(len(tokens))[:, None, None]
              * cfg.rope_base ** (-2.0 * np.arange(half) / cfg.d_head))
    pairs = keys.reshape(len(tokens), cfg.n_heads, half, 2)
    even, odd = pairs[..., 0], pairs[..., 1]
    cos, sin = np.cos(angles), np.sin(angles)
    rotated = np.stack([even * cos - odd * sin, even * sin + odd * cos], axis=-1)
    return rotated.reshape(keys.shape), values


class TestLayerZeroDelay:
    """The one-step delay, checked exactly: a layer-0 row depends only on
    its position and the token there, so after every commit each cached
    position's layer-0 rows must be those of the token it holds now. A
    row cached in the step that decodes its position would still be the
    mask id's. Greedy's stale masked rows obey the rule too, since the
    mask id is their token."""

    @pytest.fixture(scope="class")
    def weights(self):
        return init_weights(_TINY)

    @pytest.mark.parametrize("variant,remasking", [
        *((v, Remasking.LOW_CONFIDENCE)
          for v in ("none", "decode", "decode:8", "pd:8", "prefill")),
        *((v, Remasking.RANDOM)
          for v in ("decode", "greedy:8:4", "greedy:inf:4")),
    ])
    def test_cached_rows_are_the_current_tokens(self, weights, variant,
                                                remasking):
        prompt = np.arange(1, 9)
        cfg = SamplerConfig(gen_len=64, steps=32, block_size=32,
                            remasking=remasking,
                            cache=CacheVariant.parse(variant))
        _, trace = generate(prompt, cfg, weights, timed=False, kv_audit=True)
        tokens = np.concatenate(
            [prompt, np.full(64, _TINY.mask_token_id)])
        worst, compared = 0.0, 0
        for rec in trace.records:
            tokens[list(rec.decoded_positions)] = rec.decoded_ids
            positions, keys, values = rec.audit.cached_after[0]
            ref_keys, ref_values = layer0_rows(weights, tokens)
            for got, ref in ((keys, ref_keys), (values, ref_values)):
                worst = max(worst, float(np.abs(got - ref[positions]).max(
                    initial=0.0)))
            compared += len(positions)
        assert worst <= LOGIT_TOL
        assert compared or variant == "none"


class TestStore:
    """One natural-order store per generation, written only at each
    step's compute set."""

    VARIANTS = ["none", "decode:3", "pd:2", "prefill", "greedy:2:2"]

    @staticmethod
    def run_steps(weights, monkeypatch, variant):
        """Generate under ``variant``; per step, (the cache passed in, the
        store returned, whether every row outside the compute set kept
        its bytes)."""
        steps = []
        real = sampler_mod.forward_partial

        def watched(tokens, compute, cache, *args, **kwargs):
            before = None if cache is None else [
                (s.keys.copy(), s.values.copy()) for s in cache]
            result = real(tokens, compute, cache, *args, **kwargs)
            outside = np.setdiff1d(np.arange(len(tokens)), compute)
            kept = before is None or all(
                k[outside].tobytes() == s.keys[outside].tobytes()
                and v[outside].tobytes() == s.values[outside].tobytes()
                for (k, v), s in zip(before, result.kv))
            steps.append((cache, result.kv, kept))
            return result

        monkeypatch.setattr(sampler_mod, "forward_partial", watched)
        remasking = (Remasking.RANDOM if variant.startswith("greedy")
                     else Remasking.LOW_CONFIDENCE)
        generate(np.arange(1, 7), SamplerConfig(
            gen_len=16, steps=8, block_size=16, remasking=remasking,
            sample_seed=4, cache=CacheVariant.parse(variant)), weights,
            timed=False)
        return steps

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_allocated_once(self, tiny_weights, monkeypatch, variant):
        steps = self.run_steps(tiny_weights, monkeypatch, variant)
        first = steps[0][1]
        assert steps[0][0] is None
        for cache, store, _ in steps[1:]:
            for layer, slab in enumerate(first):
                assert cache[layer].keys is slab.keys
                assert cache[layer].values is slab.values
                assert store[layer].keys is slab.keys
                assert store[layer].values is slab.values

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_outside_compute_set_unchanged(self, tiny_weights,
                                                monkeypatch, variant):
        steps = self.run_steps(tiny_weights, monkeypatch, variant)
        assert [kept for _, _, kept in steps] == [True] * len(steps)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_keys_feature_major(self, tiny_weights, monkeypatch, variant):
        steps = self.run_steps(tiny_weights, monkeypatch, variant)
        assert all(slab.keys.T.flags.c_contiguous
                   for _, store, _ in steps for slab in store)


class TestScatterOutputs:
    def test_order_preserved(self):
        rows = np.array([[10.0], [20.0]], dtype=np.float32)
        row_of = scatter_outputs(plan([3, 1], [0, 2], []))
        assert rows[row_of[3]][0] == 10.0 and rows[row_of[1]][0] == 20.0
        assert row_of[0] == -1 and row_of[2] == -1  # no row, never zero-filled

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_scatter_gather_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        seq = int(rng.integers(2, 20))
        n_cached = int(rng.integers(0, seq))
        cached = np.sort(rng.choice(seq, size=n_cached, replace=False))
        compute = np.setdiff1d(np.arange(seq), cached)
        rng.shuffle(compute)
        rows = rng.random((len(compute), 3), dtype=np.float32)
        row_of = scatter_outputs(plan(compute, cached, []))
        regathered = rows[row_of[compute]]
        np.testing.assert_array_equal(regathered, rows)
