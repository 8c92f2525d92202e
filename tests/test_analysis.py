import csv
from dataclasses import replace

import numpy as np
import pytest

from dkvcache import CacheVariant, SamplerConfig, generate
from dkvcache.analysis import (
    build_report,
    kv_dynamics,
    mac_per_row,
    verify_trace_invariants,
    write_dynamics_csvs,
)
from dkvcache.trace import StepRecord, StepTrace

DIMS = dict(n_layers=2, n_heads=2, d_model=8, d_head=4, d_ff=16, vocab_size=32)


def make_record(step, rows, seq_len, millis=None):
    return StepRecord(
        step=step, masked_count=0, logit_rows=rows,
        decoded_positions=(), decoded_ids=(), refresh=False, millis=millis,
        block=(0, seq_len), cached_positions=(), compute_set=tuple(range(rows)),
    )


def replace_record(trace, step, **changes):
    trace.records[step] = replace(trace.records[step], **changes)


def make_trace(rows_per_step, seq_len=8, gen_len=8, millis=None):
    records = []
    for t, rows in enumerate(rows_per_step):
        m = millis[t] if millis else None
        records.append(make_record(t, rows, seq_len, millis=m))
    return StepTrace(records=records, prompt_len=seq_len - gen_len,
                     gen_len=gen_len,
                     total_steps=len(rows_per_step), variant="synthetic",
                     model_dims=DIMS, mask_token_id=31)


class TestCacheRatio:
    def test_baseline_zero(self):
        assert build_report(make_trace([8, 8, 8, 8])).cache_ratio == 0.0

    def test_arithmetic_example(self):
        # cached row counts 0,2,4,6 over 4 steps of an 8-token sequence
        report = build_report(make_trace([8, 6, 4, 2]))
        assert report.cache_ratio == pytest.approx(0.375)

    def test_empty_trace(self):
        with pytest.raises(ValueError, match="empty"):
            build_report(make_trace([]))

class TestCounters:
    def test_baseline_closed_form(self, tiny_weights):
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=12, sample_seed=1)
        _, trace = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        report = build_report(trace)
        assert report.total_query_rows == 6 * 16
        assert report.per_step_max_rows == 16
        # logits only for the masked rows: 12, 10, ..., 2 at the steps' starts
        assert [r.logit_rows for r in trace.records] == [12, 10, 8, 6, 4, 2]
        assert report.total_logit_rows == 42
        # d 64, d_ff 128, 2 layers, vocab 128, 16 keys: every row pays both
        # layers' Q/K/V projections and layer 0's attention, O and FFN; a
        # logit row adds layer 1's attention, O and FFN plus the head
        tail = 64 * 64 + 2 * 64 * 128 + 2 * 16 * 64
        kv, logit = 2 * 3 * 64 * 64 + tail, tail + 64 * 128
        assert mac_per_row(16, trace.model_dims) == (kv, logit)
        assert report.total_macs == 6 * 16 * kv + 42 * logit
        # a row that is both costs what the unsplit count gave
        assert kv + logit == 2 * (4 * 64 * 64 + 2 * 64 * 128
                                  + 2 * 16 * 64) + 64 * 128

    def test_synthetic_max_rows(self):
        assert build_report(make_trace([8, 3, 5])).per_step_max_rows == 8


class TestThroughput:
    def test_arithmetic(self):
        trace = make_trace([8] * 4, gen_len=128, seq_len=128,
                           millis=[500.0] * 4)
        assert build_report(trace).tokens_per_second == pytest.approx(64.0)

    def test_absent_without_timing(self):
        assert build_report(make_trace([8, 8])).tokens_per_second is None

    def test_zero_elapsed(self):
        trace = make_trace([8], millis=[0.0])
        with pytest.raises(ValueError, match="zero elapsed"):
            build_report(trace)


class TestReport:
    def test_cached_run_fields(self, tiny_weights):
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=12, sample_seed=4,
                            cache=CacheVariant.parse("decode"))
        _, cached = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        report = build_report(cached)
        assert report.cache_ratio > 0
        assert report.total_query_rows < 6 * 16
        assert report.tokens_per_second is None
        data = report.to_dict()
        assert data["variant"] == "decode(N=inf)"
        assert list(data) == [
            "variant", "cache_ratio", "tokens_per_second", "total_query_rows",
            "total_logit_rows", "total_macs", "per_step_max_rows", "gen_len",
            "seq_len", "steps"]


class TestDynamics:
    def run_with_snapshots(self, weights):
        cfg = SamplerConfig(gen_len=16, steps=16, block_size=16, sample_seed=6,
                            snapshot_layer=1)
        _, trace = generate(np.arange(1, 7), cfg, weights, timed=False)
        return trace

    def test_matrix_properties(self, tiny_weights):
        trace = self.run_with_snapshots(tiny_weights)
        keys, values, decode_steps = trace.snapshot_arrays()
        result = kv_dynamics(keys, values, decode_steps)
        for mat in (result.key_euclidean, result.value_euclidean):
            np.testing.assert_array_equal(mat, mat.T)
            np.testing.assert_array_equal(np.diag(mat), 0.0)
            assert (mat[~np.eye(mat.shape[0], dtype=bool)] > 0).all()
        for mat in (result.key_cosine, result.value_cosine):
            np.testing.assert_array_equal(mat, mat.T)
            np.testing.assert_array_equal(np.diag(mat), 1.0)

    def test_identical_snapshots_zero_change(self):
        keys = np.ones((3, 4, 2), dtype=np.float32)
        values = np.ones((3, 4, 2), dtype=np.float32)
        decode_steps = np.array([0, 0, 1, -1])
        result = kv_dynamics(keys, values, decode_steps)
        assert np.all(result.key_euclidean == 0.0)
        for stat in result.token_stats:
            assert stat.reveal_change == 0.0

    def test_prompt_positions_excluded(self, tiny_weights):
        trace = self.run_with_snapshots(tiny_weights)
        result = kv_dynamics(*trace.snapshot_arrays())
        positions = {s.position for s in result.token_stats}
        assert positions == set(range(6, 22))

    def test_reveal_spike_on_baseline_run(self, tiny_weights):
        trace = self.run_with_snapshots(tiny_weights)
        result = kv_dynamics(*trace.snapshot_arrays())
        assert result.spike_fraction >= 0.8
        assert result.spike_undefined is None

    @pytest.mark.parametrize("steps,decode_steps,reason", [
        (2, [0, 0, 1, -1], "one transition"),
        (3, [2, 2, 2, -1], "no token revealed before the final step"),
    ])
    def test_spike_fraction_undefined(self, steps, decode_steps, reason,
                                      tmp_path):
        rng = np.random.default_rng(0)
        keys, values = rng.standard_normal((2, steps, 4, 2))
        result = kv_dynamics(keys, values, np.array(decode_steps))
        assert np.isnan(result.spike_fraction)
        assert result.spike_undefined.startswith(reason)
        # no token's own spike is defined either: the column is left empty
        assert [s.spike for s in result.token_stats] == [None] * 3
        write_dynamics_csvs(result, tmp_path)
        with open(tmp_path / "dynamics_token_extremes.csv") as fh:
            assert [row["spike"] for row in csv.DictReader(fh)] == [""] * 3

    def test_trace_without_snapshots(self, tiny_weights):
        cfg = SamplerConfig(gen_len=8, steps=4, block_size=8, sample_seed=6)
        _, trace = generate(np.arange(1, 7), cfg, tiny_weights, timed=False)
        with pytest.raises(ValueError, match="trace has no snapshots"):
            trace.snapshot_arrays()

    def test_missing_snapshots(self):
        with pytest.raises(ValueError, match="malformed|snapshot"):
            kv_dynamics(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3))

    @pytest.mark.parametrize("decode_steps", [
        np.array([0, 1, -1]), np.array([0, 1, -1, 1, 0]),
        np.array([0.0, 1.0, -1.0, 1.0]), np.array([0, 1, -1, 99]),
        np.array([0, -2, -1, 1]),
    ], ids=["short", "long", "float", "past-last-step", "below-prompt"])
    def test_decode_steps_one_int_per_position(self, decode_steps):
        keys = np.ones((3, 4, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="decode steps must be 4 integers"):
            kv_dynamics(keys, keys.copy(), decode_steps)

    def test_csv_export(self, tiny_weights, tmp_path):
        trace = self.run_with_snapshots(tiny_weights)
        result = kv_dynamics(*trace.snapshot_arrays())
        written = write_dynamics_csvs(result, tmp_path)
        assert len(written) == 6
        header = (tmp_path / "dynamics_token_stats.csv").read_text().splitlines()[0]
        assert header == "token_position,decode_step,pre_mean,post_mean,max_change_step"
        matrix_lines = (tmp_path / "dynamics_key_euclidean.csv").read_text().splitlines()
        assert len(matrix_lines) == 17  # header + one row per step


class TestInvariantChecker:
    def test_accepts_valid_run(self, tiny_weights):
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=6, sample_seed=0)
        _, trace = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        verify_trace_invariants(trace)

    def test_detects_redecode(self, tiny_weights):
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=6, sample_seed=0)
        _, trace = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        rec = trace.records[3]
        trace.records[3] = StepRecord(
            **{**rec.__dict__,
               "decoded_positions": trace.records[2].decoded_positions,
               "decoded_ids": trace.records[2].decoded_ids})
        with pytest.raises(ValueError, match="immutability"):
            verify_trace_invariants(trace)

    def test_detects_block_escape(self, tiny_weights):
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=6, sample_seed=0)
        _, trace = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        rec = trace.records[0]
        trace.records[0] = StepRecord(**{**rec.__dict__, "block": (4, 6)})
        with pytest.raises(ValueError, match="block containment"):
            verify_trace_invariants(trace)

    @pytest.mark.parametrize("corrupt,error", [
        (lambda t: replace_record(t, 1, masked_count=12),
         "monotone unmasking violated at step 1: expected 10 masked, "
         "recorded 12"),
        (lambda t: replace_record(t, 0, decoded_positions=(), decoded_ids=()),
         "no tokens finalized at step 0"),
        (lambda t: t.records.pop(), "decoded 10 tokens, expected 12"),
        (lambda t: t.final_tokens.put(t.prompt_len, t.mask_token_id),
         "residual mask tokens in the generation region"),
        (lambda t: t.final_tokens.put(
            t.prompt_len, (t.final_tokens[t.prompt_len] + 1) % 100),
         "finalized-token immutability violated: position 4 ended as"),
    ], ids=["masked-count", "nothing-finalized", "decoded-total",
            "residual-mask", "final-sequence"])
    def test_detects_violation(self, tiny_weights, corrupt, error):
        cfg = SamplerConfig(gen_len=12, steps=6, block_size=6, sample_seed=0)
        _, trace = generate(np.arange(1, 5), cfg, tiny_weights, timed=False)
        corrupt(trace)
        with pytest.raises(ValueError, match=error):
            verify_trace_invariants(trace)
