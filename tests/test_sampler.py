import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dkvcache.sampler as sampler_mod
from dkvcache import (
    CacheEngine,
    CacheVariant,
    ConfigError,
    VariantKind,
    GenerationError,
    NoiseSchedule,
    Remasking,
    SamplerConfig,
    alpha_bar,
    corrupt,
    generate,
    predict_x0,
    select_to_unmask,
    tokens_per_step_schedule,
)
from dkvcache.analysis import verify_trace_invariants
from dkvcache.selftest import check_step_schedule


class TestAlphaBar:
    def test_endpoints_and_midpoint(self):
        assert alpha_bar(0, 128) == 1.0
        assert alpha_bar(128, 128) == 0.0
        assert alpha_bar(64, 128) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            alpha_bar(-1, 10)
        with pytest.raises(ValueError):
            alpha_bar(11, 10)

    def test_schedule_needs_a_step(self):
        with pytest.raises(ValueError, match="total_steps must be >= 1"):
            NoiseSchedule(0)

    def test_strictly_decreasing(self):
        sched = NoiseSchedule(32)
        values = [sched.alpha_bar(t) for t in range(33)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCorrupt:
    MASK = 126

    def test_clean_at_zero(self, rng):
        x0 = np.arange(50)
        out = corrupt(x0, 0, NoiseSchedule(10), rng, self.MASK)
        np.testing.assert_array_equal(out, x0)

    def test_all_masked_at_final_step(self, rng):
        x0 = np.arange(50)
        out = corrupt(x0, 10, NoiseSchedule(10), rng, self.MASK)
        assert (out == self.MASK).all()

    def test_mask_is_absorbing(self, rng):
        x0 = np.full(20, self.MASK)
        out = corrupt(x0, 3, NoiseSchedule(10), rng, self.MASK)
        assert (out == self.MASK).all()


class TestStepSchedule:
    def test_counts(self):
        ok, detail = check_step_schedule()
        assert ok, detail

    def test_one_per_step_two_blocks(self):
        sched = tokens_per_step_schedule(128, 128, 64)
        assert sched.block_of[:64] == (0,) * 64
        assert sched.block_of[64:] == (1,) * 64
        assert sched.blocks == ((0, 64), (64, 128))

    def test_uniform_division_single_block(self):
        assert tokens_per_step_schedule(256, 128, 256).blocks == ((0, 256),)

    def test_infeasible(self):
        with pytest.raises(ValueError, match="steps"):
            tokens_per_step_schedule(16, 20, 16)  # more steps than tokens
        with pytest.raises(ValueError, match="infeasible|blocks"):
            tokens_per_step_schedule(16, 3, 4)  # 4 blocks, 3 steps

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_counts_partition_gen_len(self, data):
        gen_len = data.draw(st.integers(1, 96))
        block = data.draw(st.integers(1, gen_len))
        n_blocks = -(-gen_len // block)
        steps = data.draw(st.integers(n_blocks, gen_len))
        sched = tokens_per_step_schedule(gen_len, steps, block)
        assert sum(sched.counts) == gen_len
        assert len(sched.counts) == steps
        assert min(sched.counts) >= 1
        # steps walk blocks left to right
        assert list(sched.block_of) == sorted(sched.block_of)
        # each step's tokens fit its block
        per_block = {}
        for count, b in zip(sched.counts, sched.block_of):
            per_block[b] = per_block.get(b, 0) + count
        for b, (start, end) in enumerate(sched.blocks):
            assert per_block[b] == end - start


class TestPredictX0:
    def test_saturated_argmax(self, rng):
        logits = np.zeros((1, 8), dtype=np.float32)
        logits[0, 5] = 100.0
        ids, conf, margin = predict_x0(logits, 0.0, rng)
        assert ids[0] == 5
        assert conf[0] == pytest.approx(1.0, abs=1e-6)

    def test_uniform_tie_break_and_margin(self, rng):
        logits = np.zeros((1, 4), dtype=np.float32)
        ids, conf, margin = predict_x0(logits, 0.0, rng)
        assert ids[0] == 0  # lowest index wins ties
        assert conf[0] == pytest.approx(0.25)
        assert margin[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("temperature", [0.0, 0.7])
    def test_margin_matches_partition(self, temperature):
        # reference: the gap between the two largest probabilities, taken
        # with np.partition; row 0's top pair is tied, so its margin is 0
        logits = np.random.default_rng(9).standard_normal((64, 32)).astype(np.float32)
        logits[0, [3, 11]] = logits[0].max() + 1.0
        ids, conf, margin = predict_x0(logits, temperature,
                                       np.random.default_rng(2))
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted / temperature if temperature else shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        top2 = np.partition(probs, -2, axis=1)[:, -2:]
        assert margin.tobytes() == (top2[:, 1] - top2[:, 0]).tobytes()
        assert margin[0] == 0
        np.testing.assert_array_equal(conf, probs[np.arange(64), ids])

    @pytest.mark.parametrize("temperature", [1e-40, 1e-46, 1e-300])
    def test_tiny_temperature_takes_the_argmax(self, rng, temperature):
        # raw logits over 1e-40 overflow float32 and the softmax turns NaN;
        # shifted by the row max first, the top entry gets all the mass.
        # Below float32's smallest subnormal the divisor itself rounds to 0.
        logits = np.random.default_rng(4).standard_normal((3, 8)).astype(np.float32)
        ids, conf, margin = predict_x0(logits, temperature, rng)
        np.testing.assert_array_equal(ids, logits.argmax(axis=1))
        assert np.isfinite(conf).all() and np.isfinite(margin).all()

    def test_seeded_rerun_identical(self):
        logits = np.random.default_rng(5).standard_normal((6, 16)).astype(np.float32)
        a = predict_x0(logits, 1.0, np.random.default_rng(77))
        b = predict_x0(logits, 1.0, np.random.default_rng(77))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_negative_temperature(self, rng):
        with pytest.raises(ValueError, match="temperature"):
            predict_x0(np.zeros((1, 4), dtype=np.float32), -0.5, rng)

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_non_finite_temperature(self, rng, temperature):
        with pytest.raises(ValueError, match="temperature must be finite"):
            predict_x0(np.zeros((1, 4), dtype=np.float32), temperature, rng)

    def test_one_vocab_column(self, rng):
        with pytest.raises(ValueError, match="at least two vocabulary"):
            predict_x0(np.zeros((3, 1), dtype=np.float32), 0.0, rng)

    def test_temperature_zero_consumes_no_rng(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        predict_x0(np.zeros((4, 8), dtype=np.float32), 0.0, rng)
        assert rng.bit_generator.state == before


class TestSelectToUnmask:
    """``select_to_unmask`` ranks the candidates it is given by the scores
    it is given; ``decode_step`` gives it confidence or margin."""

    def test_top_score(self):
        scores = np.array([0.9, 0.5, 0.7])
        assert select_to_unmask([3, 5, 7], scores, 1) == (3,)
        assert select_to_unmask([3, 5, 7], scores, 2) == (3, 7)

    def test_ties_break_low_position(self):
        chosen = select_to_unmask([4, 2, 6], np.array([0.5, 0.5, 0.5]), 2)
        assert chosen == (2, 4)

    def test_k_takes_every_candidate(self):
        chosen = select_to_unmask([9, 1, 5], np.array([0.1, 0.3, 0.2]), 3)
        assert chosen == (1, 5, 9)

    @staticmethod
    def first_step(weights, monkeypatch, remasking):
        """Step 0's decodes, with confidence rising and margin falling over
        the candidates so that the two rank them oppositely. Candidate row
        r (position 4 + r) proposes id 20 + r, and each decoded position
        must receive its own row's id."""
        def opposite(logits, temperature, rng):
            rising = np.linspace(0.1, 0.9, logits.shape[0])
            return (20 + np.arange(logits.shape[0], dtype=np.int64), rising,
                    rising[::-1].copy())

        monkeypatch.setattr(sampler_mod, "predict_x0", opposite)
        cfg = SamplerConfig(gen_len=8, steps=4, block_size=8,
                            remasking=remasking)
        mask = weights.config.mask_token_id
        tokens = np.array([1, 2, 3, 4] + [mask] * 8)
        engine = CacheEngine(cfg.cache, seq_len=12, prompt_len=4)
        record = sampler_mod.decode_step(
            tokens, np.random.default_rng(0), weights, cfg, engine,
            tokens_per_step_schedule(8, 4, 8), 0, timed=False)
        expected = [16 + p for p in record.decoded_positions]
        assert list(record.decoded_ids) == expected
        assert tokens[4:].tolist() == [
            16 + p if p in record.decoded_positions else mask
            for p in range(4, 12)]
        return record.decoded_positions

    def test_top_confidence(self, tiny_weights, monkeypatch):
        assert self.first_step(tiny_weights, monkeypatch,
                               Remasking.LOW_CONFIDENCE) == (10, 11)

    def test_top_margin(self, tiny_weights, monkeypatch):
        assert self.first_step(tiny_weights, monkeypatch,
                               Remasking.TOP_MARGIN) == (4, 5)


class TestDecodeStep:
    """``decode_step`` writes into the caller's tokens, takes the prompt
    length from their count and, under random remasking, decodes the
    engine's predefined order."""

    @pytest.mark.parametrize("prompt_len", [4, 0])
    def test_random_order_read_from_engine(self, tiny_weights, prompt_len):
        cfg = SamplerConfig(gen_len=4, steps=2, block_size=4,
                            remasking=Remasking.RANDOM)
        mask = tiny_weights.config.mask_token_id
        tokens = np.array([*range(1, prompt_len + 1)] + [mask] * 4)
        order = [(prompt_len + 1, prompt_len + 3), (prompt_len, prompt_len + 2)]
        engine = CacheEngine(cfg.cache, seq_len=prompt_len + 4,
                             prompt_len=prompt_len, predefined_order=order)
        record = sampler_mod.decode_step(
            tokens, np.random.default_rng(0), tiny_weights, cfg, engine,
            tokens_per_step_schedule(4, 2, 4), 0, timed=False)
        assert record.decoded_positions == order[0]
        assert record.block == (prompt_len, prompt_len + 4)
        decoded = dict(zip(order[0], record.decoded_ids))
        assert tokens.tolist() == [*range(1, prompt_len + 1)] + [
            decoded.get(p, mask) for p in range(prompt_len, prompt_len + 4)]


class TestDecodeOrder:
    """Random remasking draws its decode order once per generation, the
    same for every cache variant."""

    def test_draw_follows_the_schedule(self):
        sched = tokens_per_step_schedule(40, 12, 16)
        order = sampler_mod._draw_decode_order(
            sched, 5, np.random.default_rng(42))
        assert order == sampler_mod._draw_decode_order(
            sched, 5, np.random.default_rng(42))
        for step, positions in enumerate(order):
            lo, hi = sched.blocks[sched.block_of[step]]
            assert len(positions) == sched.counts[step]
            assert list(positions) == sorted(positions)
            assert all(5 + lo <= p < 5 + hi for p in positions)
        drawn = [p for positions in order for p in positions]
        assert sorted(drawn) == list(range(5, 45))

    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_every_variant_decodes_the_same_positions(self, tiny_weights,
                                                      temperature):
        decoded = {}
        for variant in ("none", "decode:8", "prefill", "pd:8", "greedy:8:4"):
            cfg = SamplerConfig(gen_len=32, steps=16, block_size=16,
                                sample_seed=4, temperature=temperature,
                                remasking=Remasking.RANDOM,
                                cache=CacheVariant.parse(variant))
            _, trace = generate(np.arange(1, 9), cfg, tiny_weights,
                                timed=False)
            decoded[variant] = [r.decoded_positions for r in trace.records]
        assert all(steps == decoded["none"] for steps in decoded.values())


class TestSamplerConfig:
    def test_steps_bound(self):
        with pytest.raises(ConfigError, match="steps"):
            SamplerConfig(gen_len=8, steps=9, block_size=8)

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_non_finite_temperature(self, temperature):
        with pytest.raises(ConfigError, match="temperature must be finite"):
            SamplerConfig(gen_len=8, steps=8, block_size=8,
                          temperature=temperature)

    @pytest.mark.parametrize("build,named", [
        (lambda: SamplerConfig(gen_len=16.0, steps=8, block_size=8),
         "'gen_len' has type float"),
        (lambda: SamplerConfig(gen_len=16, steps=8, block_size=8,
                               remasking="random"),
         "'remasking' has type str"),
        (lambda: SamplerConfig(gen_len=16, steps=1, block_size=8),
         r"steps \(1\) must be in \[2, 16\]"),
        (lambda: SamplerConfig(gen_len=16, steps=8, block_size=8,
                               sample_seed=-1), "sample_seed must be >= 0"),
        (lambda: CacheVariant(kind=VariantKind.DECODE, refresh_interval=True),
         "'refresh_interval' has type bool"),
        (lambda: CacheVariant(kind="decode"), "'kind' has type str"),
    ], ids=["gen_len-float", "remasking-str", "infeasible-schedule",
            "sample_seed-negative", "refresh_interval-bool", "kind-str"])
    def test_fields_checked_by_the_class(self, build, named):
        with pytest.raises(ConfigError, match=named):
            build()

    def test_greedy_requires_random(self):
        with pytest.raises(ConfigError, match="random"):
            SamplerConfig(gen_len=8, steps=8, block_size=8,
                          remasking=Remasking.LOW_CONFIDENCE,
                          cache=CacheVariant.parse("greedy"))


class TestGenerate:
    def test_no_masks_remain(self, tiny_weights):
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=6, sample_seed=1)
        tokens, trace = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        assert (tokens[4:] != tiny_weights.config.mask_token_id).all()
        verify_trace_invariants(trace)

    def test_deterministic_rerun(self, tiny_weights):
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=6, sample_seed=1,
                            temperature=0.7, remasking=Remasking.RANDOM)
        a, ta = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        b, tb = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        np.testing.assert_array_equal(a, b)
        assert [r.decoded_positions for r in ta.records] == \
               [r.decoded_positions for r in tb.records]

    def test_none_variant_row_total(self, tiny_weights):
        cfg = SamplerConfig(gen_len=16, steps=8, block_size=8, sample_seed=2)
        _, trace = generate(np.arange(1, 7), cfg, tiny_weights, timed=False)
        assert trace.total_rows == 8 * (6 + 16)

    def test_random_order_independent_of_weights(self, tiny_config, tiny_weights):
        from dkvcache import ModelConfig, init_weights
        other = init_weights(ModelConfig(**{
            f: getattr(tiny_config, f) for f in (
                "n_layers", "n_heads", "d_model", "d_head", "d_ff",
                "vocab_size", "mask_token_id", "max_positions", "rope_base")
        }, weight_seed=99))
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=6, sample_seed=8,
                            remasking=Remasking.RANDOM, temperature=0.0)
        _, ta = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        _, tb = generate(np.arange(1, 5), cfg, other, timed=False)
        assert [r.decoded_positions for r in ta.records] == \
               [r.decoded_positions for r in tb.records]

    def test_prompt_validation(self, tiny_weights):
        cfg = SamplerConfig(gen_len=8, steps=4, block_size=8)
        with pytest.raises(ConfigError, match="mask token"):
            generate(np.array([1, 127]), cfg, tiny_weights)
        with pytest.raises(ConfigError, match="vocabulary"):
            generate(np.array([1, 500]), cfg, tiny_weights)

    @pytest.mark.parametrize("prompt,overrides,error", [
        (np.ones((2, 3), dtype=np.int64), {}, "prompt must be a flat id list"),
        (np.arange(1, 7), {"gen_len": 508, "steps": 254, "block_size": 508},
         r"prompt \+ gen_len = 514 exceeds max_positions 512"),
        (np.arange(1, 7), {"snapshot_layer": 2},
         r"snapshot_layer 2 outside \[0, 2\)"),
        (np.arange(1, 7), {"snapshot_layer": -1},
         r"snapshot_layer -1 outside \[0, 2\)"),
    ], ids=["2d-prompt", "past-max-positions", "snapshot-layer-high",
            "snapshot-layer-negative"])
    def test_run_rejected_before_step_0(self, tiny_weights, prompt,
                                        overrides, error):
        cfg = SamplerConfig(**{"gen_len": 8, "steps": 4, "block_size": 8,
                               **overrides})
        with pytest.raises(ConfigError, match=error):
            generate(prompt, cfg, tiny_weights)

    def test_partial_trace_on_failure(self, tiny_weights, monkeypatch):
        calls = {"n": 0}
        real = sampler_mod.forward_partial

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("injected fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(sampler_mod, "forward_partial", flaky)
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=6, sample_seed=1)
        with pytest.raises(GenerationError) as excinfo:
            generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        assert len(excinfo.value.partial_trace.records) == 3

    def test_partial_trace_snapshots_are_the_steps_run(self, tiny_weights,
                                                       monkeypatch):
        stores = []
        real = sampler_mod.forward_partial

        def flaky(*args, **kwargs):
            if len(stores) == 3:
                raise RuntimeError("injected fault")
            result = real(*args, **kwargs)
            slab = result.kv[1]
            stores.append((slab.keys.tobytes(), slab.values.tobytes()))
            return result

        monkeypatch.setattr(sampler_mod, "forward_partial", flaky)
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=6, sample_seed=1,
                            cache=CacheVariant.parse("decode"), snapshot_layer=1)
        with pytest.raises(GenerationError) as excinfo:
            generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        keys, values, _ = excinfo.value.partial_trace.snapshot_arrays()
        assert keys.shape[0] == values.shape[0] == 3
        assert [(k.tobytes(), v.tobytes())
                for k, v in zip(keys, values)] == stores

    def test_snapshot_arrays_are_views(self, tiny_weights):
        cfg = SamplerConfig(gen_len=8, steps=4, block_size=8, sample_seed=1,
                            snapshot_layer=0)
        _, trace = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        keys, values, _ = trace.snapshot_arrays()
        assert keys.shape == values.shape == (4, 12, 64)
        assert np.shares_memory(keys, trace.snapshot_keys)
        assert np.shares_memory(values, trace.snapshot_values)

    def test_timed_run_records_millis(self, tiny_weights):
        cfg = SamplerConfig(gen_len=8, steps=4, block_size=8, sample_seed=1)
        _, trace = generate(np.arange(1, 3), cfg, tiny_weights, timed=True)
        assert all(r.millis is not None and r.millis >= 0 for r in trace.records)

    def test_mask_id_never_proposed(self, tiny_weights):
        # with random weights the mask id would otherwise win some draws
        mask = tiny_weights.config.mask_token_id
        for seed in range(8):
            cfg = SamplerConfig(gen_len=16, steps=8, block_size=8,
                                sample_seed=seed, temperature=2.0,
                                remasking=Remasking.RANDOM)
            tokens, _ = generate(np.arange(1, 5), cfg, tiny_weights,
                                 timed=False)
            assert (tokens != mask).all()

    def test_snapshots_in_natural_order(self, tiny_weights):
        # row p of a step's snapshot is the row attention read for position
        # p: the fresh row when p was computed, else the cached one
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=12, sample_seed=2,
                            cache=CacheVariant.parse("decode"), snapshot_layer=1)
        _, trace = generate(np.arange(1, 5), cfg, tiny_weights, timed=False,
                            kv_audit=True)
        cached = []
        for rec in trace.records:
            key_store = trace.snapshot_keys[rec.step]
            value_store = trace.snapshot_values[rec.step]
            for positions, keys, values in [rec.audit.fresh[1], *cached]:
                assert key_store[positions].tobytes() == keys.tobytes()
                assert value_store[positions].tobytes() == values.tobytes()
            cached = [rec.audit.cached_after[1]]


class TestLogitRows:
    """``decode_step`` asks the model for logits only on the rows the
    sampler reads, and ``predict_x0`` sees exactly those rows."""

    @staticmethod
    def count_rows(monkeypatch):
        seen = []
        real = sampler_mod.predict_x0

        def counting(logits, *args):
            seen.append(logits.shape[0])
            return real(logits, *args)

        monkeypatch.setattr(sampler_mod, "predict_x0", counting)
        return seen

    # under random remasking every variant, not only greedy, reads just
    # the step's decodes
    @pytest.mark.parametrize("variant", ["greedy:4:2", "greedy:inf:0",
                                         "greedy:2:4:current", "none",
                                         "decode:3", "prefill"])
    def test_greedy_reads_the_decodes(self, tiny_weights, monkeypatch,
                                      variant):
        seen = self.count_rows(monkeypatch)
        cfg = SamplerConfig(gen_len=16, steps=8, block_size=8, sample_seed=3,
                            remasking=Remasking.RANDOM,
                            cache=CacheVariant.parse(variant))
        _, trace = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        counts = list(tokens_per_step_schedule(16, 8, 8).counts)
        assert seen == counts == [r.logit_rows for r in trace.records]

    @pytest.mark.parametrize("variant", ["none", "decode:8", "decode:3",
                                         "decode", "prefill", "pd:2"])
    def test_reads_masked_in_block_computed(self, tiny_weights, monkeypatch,
                                            variant):
        seen = self.count_rows(monkeypatch)
        cfg = SamplerConfig(gen_len=24, steps=12, block_size=8, sample_seed=3,
                            cache=CacheVariant.parse(variant))
        _, trace = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        masked, expected = set(range(4, 28)), []
        for rec in trace.records:
            lo, hi = rec.block
            expected.append(len({p for p in masked if lo <= p < hi}
                                & set(rec.compute_set.tolist())))
            masked -= set(rec.decoded_positions)
        assert seen == expected == [r.logit_rows for r in trace.records]
        # three blocks of 8: fewer rows than the masked count
        assert sum(expected) < sum(r.masked_count for r in trace.records)

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    @pytest.mark.parametrize("variant", ["none", "decode:8", "greedy:4:2"])
    def test_same_sequence_as_all_rows_pass(self, tiny_weights, monkeypatch,
                                            variant, temperature):
        # the same rows sliced from an all-rows pass: same draws, same tokens
        cfg = SamplerConfig(gen_len=24, steps=12, block_size=8, sample_seed=7,
                            temperature=temperature,
                            remasking=Remasking.RANDOM,
                            cache=CacheVariant.parse(variant))
        tokens, trace = generate(np.arange(1, 5), cfg, tiny_weights,
                                 timed=False)
        real = sampler_mod.forward_partial

        def all_rows(*args, logit_rows):
            result = real(*args)
            result.logits = result.logits[logit_rows]
            return result

        monkeypatch.setattr(sampler_mod, "forward_partial", all_rows)
        sliced, sliced_trace = generate(np.arange(1, 5), cfg, tiny_weights,
                                        timed=False)
        np.testing.assert_array_equal(tokens, sliced)
        assert ([r.logit_rows for r in trace.records]
                == [r.logit_rows for r in sliced_trace.records])

    def test_predefined_decode_must_be_a_candidate(self, tiny_weights,
                                                   monkeypatch):
        # greedy reads its predefined decodes as they are: one the plan
        # serves from cache has no logit row, which forward_partial
        # refuses, and one decoded twice leaves positions masked
        cfg = SamplerConfig(gen_len=16, steps=8, block_size=8, sample_seed=3,
                            remasking=Remasking.RANDOM,
                            cache=CacheVariant.parse("greedy:inf:16"))
        real_kept = CacheEngine._kept

        def keep_upcoming(engine, masked, step):
            order = engine.predefined_order
            upcoming = order[step + 1] if step + 1 < len(order) else ()
            return np.union1d(real_kept(engine, masked, step), upcoming)

        with monkeypatch.context() as patch:
            patch.setattr(CacheEngine, "_kept", keep_upcoming)
            with pytest.raises(GenerationError,
                               match="logit row out of range"):
                generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        real_order = sampler_mod._draw_decode_order

        def revisit(sched, prompt_len, rng):
            order = real_order(sched, prompt_len, rng)
            return [order[0]] + [order[0]] + order[2:]

        monkeypatch.setattr(sampler_mod, "_draw_decode_order", revisit)
        with pytest.raises(GenerationError, match="2 positions still masked"):
            generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
