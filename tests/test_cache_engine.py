import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkvcache import (
    CacheEngine,
    CacheVariant,
    KVSlab,
    LayoutError,
    build_layout,
    greedy_window,
    scatter_outputs,
)
from dkvcache.cache_engine import ComputePlan
from dkvcache.selftest import check_commit_gather, naive_next_cache


def make_slab(layer, positions, width=4, seed=0):
    rng = np.random.default_rng(seed + 100 * layer)
    positions = np.asarray(positions, dtype=np.int64)
    return KVSlab(
        layer=layer,
        keys=rng.random((len(positions), width), dtype=np.float32),
        values=rng.random((len(positions), width), dtype=np.float32),
        row_positions=positions,
    )


def commit_gather(plan, cached, fresh):
    """Commit the [cached ; fresh] slab of one layer; return the next cache."""
    engine = CacheEngine(CacheVariant.decode(), seq_len=len(plan.layout))
    engine.commit(plan, [KVSlab(
        layer=0, keys=np.concatenate([cached.keys, fresh.keys]),
        values=np.concatenate([cached.values, fresh.values]),
        row_positions=plan.layout)])
    return engine.slabs[0]


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
            CacheVariant.decode(0)

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
    def test_center_window(self):
        assert greedy_window([5], 4, (0, 16)) == {3, 4, 5, 6, 7}

    def test_boundary_clip(self):
        assert greedy_window([0], 4, (0, 16)) == {0, 1, 2}

    def test_union_of_centers(self):
        assert greedy_window([5, 6], 2, (0, 16)) == {4, 5, 6, 7}

    def test_zero_window(self):
        assert greedy_window([5], 0, (0, 16)) == {5}

    def test_clip_to_region_start(self):
        assert greedy_window([4], 4, (4, 16)) == {4, 5, 6}


class TestPlanComputeSet:
    """``CacheEngine.plan_step`` refusals; the per-step rule of every variant
    is ``test_greedy_plan.test_plans_match_reference``."""

    def test_greedy_needs_predefined_order(self):
        with pytest.raises(ValueError, match="predefined"):
            CacheEngine(CacheVariant.greedy(), seq_len=4)

    def test_monotone_mask_violation(self):
        # position 9 is unmasked at step 0, so step 0's commit keeps it;
        # masking it again at step 1 would serve a masked row from cache
        engine = CacheEngine(CacheVariant.decode(), seq_len=10)
        masked = np.zeros(10, dtype=bool)
        masked[1] = True
        plan = engine.plan_step(masked=masked, step=0)
        engine.commit(plan, [make_slab(0, plan.layout)])
        masked[9] = True
        with pytest.raises(ValueError, match="masked position 9 is served"):
            engine.plan_step(masked=masked, step=1)


class TestBuildLayout:
    def test_worked_eight_token_example(self):
        # cached [2,4,5], masked [0,1,3,6,7]; next cached adds position 7
        plan = build_layout(
            compute_set=[0, 1, 3, 6, 7],
            cached_positions=[2, 4, 5],
            next_cached_positions=[2, 4, 5, 7],
            seq_len=8,
        )
        assert tuple(plan.layout) == (2, 4, 5, 0, 1, 3, 6, 7)
        assert list(plan.reorder_index) == [0, 1, 2, 7]

    def test_empty_cache_degenerate(self):
        plan = build_layout(list(range(6)), [], [0, 3], 6)
        assert tuple(plan.layout) == (0, 1, 2, 3, 4, 5)
        assert list(plan.reorder_index) == [0, 3]

    def test_missing_next_position(self):
        with pytest.raises(LayoutError, match="absent"):
            build_layout([0, 1], [2], [5], 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31))
    def test_gather_matches_naive_reference(self, tiny_weights, seed):
        ok, detail = check_commit_gather(tiny_weights, cases=1,
                                         seq_range=(2, 33), seed=seed)
        assert ok, detail

    def test_naive_reference_catches_swapped_index(self):
        # the oracle above has teeth: a plan whose reorder index has two
        # entries swapped commits rows that the naive reference rejects
        plan = build_layout([0, 1, 3, 6, 7], [2, 4, 5], [2, 4, 5, 7], 8)
        swapped = plan.reorder_index.copy()
        swapped[[0, 3]] = swapped[[3, 0]]
        bad = dataclasses.replace(plan, reorder_index=swapped)
        cached = make_slab(0, [2, 4, 5])
        fresh = make_slab(0, [0, 1, 3, 6, 7], seed=9)
        ref_k, ref_v = naive_next_cache([cached, fresh],
                                        plan.next_cached_positions, 8)
        np.testing.assert_array_equal(
            commit_gather(plan, cached, fresh).keys, ref_k)
        nxt = commit_gather(bad, cached, fresh)
        assert not np.array_equal(nxt.keys, ref_k)
        assert not np.array_equal(nxt.values, ref_v)


class TestConcatReorder:
    """The [cached ; fresh] slab attention reads, gathered by ``commit``."""

    def test_identity_prefix_keeps_cache(self):
        cached = make_slab(0, [1, 3])
        fresh = make_slab(0, [0, 2], seed=5)
        plan = build_layout([0, 2], [1, 3], [1, 3], 4)
        nxt = commit_gather(plan, cached, fresh)
        np.testing.assert_array_equal(nxt.keys, cached.keys)
        np.testing.assert_array_equal(nxt.values, cached.values)
        assert list(nxt.row_positions) == [1, 3]

    def test_worked_example_positions(self):
        cached = make_slab(0, [2, 4, 5])
        fresh = make_slab(0, [0, 1, 3, 6, 7], seed=9)
        plan = build_layout([0, 1, 3, 6, 7], [2, 4, 5], [2, 4, 5, 7], 8)
        nxt = commit_gather(plan, cached, fresh)
        assert list(plan.layout) == [2, 4, 5, 0, 1, 3, 6, 7]
        assert list(nxt.row_positions) == [2, 4, 5, 7]
        np.testing.assert_array_equal(nxt.keys[3], fresh.keys[4])


class TestScatterOutputs:
    def test_order_preserved(self):
        plan = ComputePlan(compute_set=np.array([3, 1]),
                           cached_positions=np.array([0, 2]),
                           layout=np.array([0, 2, 3, 1]),
                           reorder_index=np.zeros(0, dtype=np.int64),
                           next_cached_positions=np.zeros(0, dtype=np.int64),
                           refresh_flag=False)
        rows = np.array([[10.0], [20.0]], dtype=np.float32)
        row_of = scatter_outputs(plan)
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
        plan = build_layout(compute.tolist(), cached.tolist(), [], seq)
        rows = rng.random((len(compute), 3), dtype=np.float32)
        row_of = scatter_outputs(plan)
        regathered = rows[row_of[compute]]
        np.testing.assert_array_equal(regathered, rows)
