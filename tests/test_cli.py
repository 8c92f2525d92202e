import contextlib
import csv
import json
import os
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dkvcache
import dkvcache.cli as cli_mod
from dkvcache import CacheVariant, ConfigError, tokens_per_step_schedule
from dkvcache.analysis import build_report
from dkvcache.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG,
    EXIT_NO_SNAPSHOTS,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_SELFTEST_FAIL,
    _openblas_threads,
    _thread_cap,
    load_run_config,
    main,
)


BASE_CONFIG = {
    "model": {"n_layers": 2, "n_heads": 2, "d_model": 64, "d_head": 32,
              "d_ff": 128, "vocab_size": 128, "mask_token_id": 127,
              "max_positions": 256, "weight_seed": 1},
    "sampler": {"gen_len": 16, "steps": 8, "block_size": 8,
                "remasking": "low_confidence", "temperature": 0.0,
                "sample_seed": 3},
    "cache": {"variant": "decode", "refresh_interval": 4},
    "prompt": [1, 2, 3, 4, 5, 6, 7, 8],
    "output_dir": "out",
    "deterministic": True,
}


def write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    cfg["output_dir"] = str(tmp_path / cfg["output_dir"])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out"


class TestLoadConfig:
    def test_unknown_field_named(self, tmp_path):
        # the snapshot layer is sampler.snapshot_layer, not a top-level key
        for section, field in (("cache", "refersh_interval"),
                               (None, "snapshots")):
            path, _ = write_config(tmp_path)
            raw = json.loads(path.read_text())
            (raw[section] if section else raw)[field] = 4
            path.write_text(json.dumps(raw))
            with pytest.raises(ValueError,
                               match=f"{section or 'run'}.{field}"):
                load_run_config(path)

    def test_missing_field_named(self, tmp_path):
        path, _ = write_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["sampler"]["gen_len"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="sampler.gen_len"):
            load_run_config(path)

    def test_bad_variant_named(self, tmp_path):
        path, _ = write_config(tmp_path, cache={"variant": "decoe"})
        with pytest.raises(ValueError, match="cache"):
            load_run_config(path)

    @pytest.mark.parametrize("overrides,named", [
        ({"sampler": 5}, "'sampler' must be a JSON object"),
        ({"cache": "decode"}, "'cache' must be a JSON object"),
        ({"sampler": {"gen_len": "4"}}, "sampler: 'gen_len' has type str"),
        ({"sampler": {"temperature": True}},
         "sampler: 'temperature' has type bool"),
        ({"prompt": [1.5, 2]}, "prompt: 1.5 is not a token id"),
        ({"cache": {"variant": "prefill", "refresh_interval": 4,
                    "window_size": 9}}, "prefill takes no refresh_interval"),
        ({"cache": {"variant": "decode", "window_size": 9}},
         "decode takes no window"),
        ({"cache": {"variant": "decode", "window_size": 0}},
         "decode takes no window"),
        ({"cache": {"variant": "decode", "window_center": "previous"}},
         "decode takes no window"),
        ({"model": {"n_layers": 2.0}}, "model: 'n_layers' has type float"),
        ({"model": {"weight_seed": 1.5}}, "model: 'weight_seed' has type float"),
        ({"model": {"n_layers": True}}, "model: 'n_layers' has type bool"),
        ({"model": {"rope_base": float("nan")}}, "rope_base must be finite"),
        ({"sampler": {"temperature": float("inf")}},
         "temperature must be finite"),
        ({"sampler": {"gen_len": 16.0}}, "sampler: 'gen_len' has type float"),
        ({"cache": {"variant": "decode", "refresh_interval": True}},
         "cache: 'refresh_interval' has type bool"),
        ({"cache": {"variant": "greedy", "window_size": 2.0}},
         "cache: 'window_size' has type float"),
        # the JSON strings and booleans the CLI converts itself
        ({"cache": {"variant": 8}}, "'cache.variant' has type int"),
        ({"sampler": {"remasking": 1}}, "'sampler.remasking' has type int"),
        ({"deterministic": "yes"}, "'run.deterministic' has type str"),
        ({"prompt": "1 2 3"},
         "prompt: expected an id list or {\"file\": path}"),
    ], ids=["sampler-not-object", "cache-not-object", "gen_len-str",
            "temperature-bool", "prompt-float", "prefill-interval",
            "decode-window", "decode-window-0", "decode-window-center",
            "n_layers-float", "weight_seed-float", "n_layers-bool",
            "rope_base-nan", "temperature-inf", "gen_len-float",
            "refresh_interval-bool", "window_size-float", "variant-int",
            "remasking-int", "deterministic-str", "prompt-str"])
    def test_bad_value_named(self, tmp_path, overrides, named):
        path, _ = write_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=named):
            load_run_config(path)

    @settings(max_examples=100, deadline=None)
    @given(st.fixed_dictionaries({
        name: st.integers(-2, 64) | st.sampled_from([8.0, True, "8", None])
        for name in ("gen_len", "steps", "block_size", "sample_seed")}))
    def test_sampler_section_checked_at_load(self, tmp_path_factory, section):
        # a sampler section the loader accepts is one the run can schedule
        path, _ = write_config(tmp_path_factory.mktemp("run"), sampler=section)
        try:
            cfg = load_run_config(path).sampler
        except ConfigError:
            return
        tokens_per_step_schedule(cfg.gen_len, cfg.steps, cfg.block_size)
        np.random.default_rng(cfg.sample_seed)

    def test_configured_variant_equals_parsed(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert load_run_config(path).sampler.cache == CacheVariant.parse("decode:4")
        path, _ = write_config(tmp_path, cache={"variant": "greedy"},
                               sampler={"remasking": "random"})
        assert load_run_config(path).sampler.cache == CacheVariant.parse("greedy:4")

    def test_prompt_file(self, tmp_path):
        (tmp_path / "prompt.txt").write_text("3 1 4 1 5\n")
        path, _ = write_config(tmp_path, prompt={"file": "prompt.txt"})
        cfg = load_run_config(path)
        np.testing.assert_array_equal(cfg.prompt, [3, 1, 4, 1, 5])
        (tmp_path / "prompt.txt").write_text("3 1 x 1 5\n")
        with pytest.raises(ValueError, match="prompt file prompt.txt: .*'x'"):
            load_run_config(path)
        (tmp_path / "prompt.txt").write_text(f"3 1 {2**63}\n")
        with pytest.raises(ConfigError, match=f"prompt: {2**63} is not"):
            load_run_config(path)


class TestGenerateCommand:
    def test_success_writes_outputs(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == EXIT_OK
        for name in ("sequence.txt", "trace.jsonl", "report.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["variant"] == "decode(N=4)"
        assert report["tokens_per_second"] is None  # deterministic mode

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for blob in (b"{not json", b"\xff{"):  # the second is not UTF-8
            path.write_bytes(blob)
            assert main(["generate", "--config", str(path)]) == EXIT_CONFIG
            assert "config error" in capsys.readouterr().err
        # well-formed JSON with values of the wrong type or kind
        (tmp_path / "prompt.txt").write_text("1 x 3\n")
        (tmp_path / "binary.txt").write_bytes(b"\xff 1 3\n")
        for overrides in ({"sampler": 5}, {"sampler": {"gen_len": "4"}},
                          {"prompt": {"file": "prompt.txt"}},
                          {"prompt": {"file": "binary.txt"}},
                          {"cache": "decode"}, {"prompt": [1.5, 2]},
                          {"cache": {"variant": "prefill"}}):
            path, _ = write_config(tmp_path, **overrides)
            assert main(["generate", "--config", str(path)]) == EXIT_CONFIG
            assert "config error" in capsys.readouterr().err

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["sampler"]["remask"] = "random"
        path.write_text(json.dumps(raw))
        assert main(["generate", "--config", str(path)]) == EXIT_CONFIG
        assert "sampler.remask" in capsys.readouterr().err

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == EXIT_OK
        first = {name: (out / name).read_bytes()
                 for name in ("sequence.txt", "trace.jsonl", "report.json",
                              "cache_debug.jsonl", "trace_summary.csv")}
        assert main(["generate", "--config", str(path)]) == EXIT_OK
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_snapshot_flag_writes_arrays(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path),
                     "--snapshots", "1"]) == EXIT_OK
        keys = np.load(out / "snapshots_keys.npy")
        # the key store is [d_model, seq] in memory; the file's header
        # says C order, so np.load gives C-order [steps, seq, d_model]
        assert keys.shape == (8, 24, 64) and keys.flags.c_contiguous

    def test_runtime_failure_writes_partial_trace(self, tmp_path, capsys,
                                                  monkeypatch):
        import dkvcache.sampler as sampler_mod

        calls = {"n": 0}
        real = sampler_mod.forward_partial

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("injected fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(sampler_mod, "forward_partial", flaky)
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == EXIT_RUNTIME
        assert "partial trace" in capsys.readouterr().err
        assert len((out / "trace.jsonl").read_text().splitlines()) == 2


class TestBenchCommand:
    def test_two_variants(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["bench", "--config", str(path),
                     "--variants", "none,decode:8",
                     "--deterministic"]) == EXIT_OK
        with open(out / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["variant"] == "none"
        assert int(rows[1]["total_rows"]) < int(rows[0]["total_rows"])
        assert rows[0]["output_match"] == "1"
        # mac_reduction against the baseline, from the runs' own reports
        cfg = load_run_config(path)
        weights = dkvcache.init_weights(cfg.model)
        macs = {}
        for variant in ("none", "decode:8"):
            _, trace = dkvcache.generate(cfg.prompt, replace(
                cfg.sampler, cache=CacheVariant.parse(variant)), weights,
                timed=False)
            macs[variant] = build_report(trace).total_macs
        assert rows[0]["mac_reduction"] == "0.000000"
        assert rows[1]["mac_reduction"] == (
            f"{1 - macs['decode:8'] / macs['none']:.6f}")

    def test_refresh_one_matches_baseline(self, tmp_path):
        # the second run lists no "none": bench runs the baseline itself
        # and writes no row for it
        path, out = write_config(tmp_path)
        for variants, row in (("none,decode:1", 1), ("decode:1,decode:8", 0)):
            assert main(["bench", "--config", str(path),
                         "--variants", variants,
                         "--deterministic"]) == EXIT_OK
            with open(out / "bench.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 2
            assert rows[row]["variant"] == "decode(N=1)"
            assert rows[row]["output_match"] == "1"

    def test_greedy_refresh_one_matches_baseline(self, tmp_path):
        # under random remasking every variant decodes one predrawn order,
        # so greedy recomputing every row on every step is the baseline
        path, out = write_config(tmp_path, sampler={"remasking": "random"})
        assert main(["bench", "--config", str(path),
                     "--variants", "none,greedy:1:4",
                     "--deterministic"]) == EXIT_OK
        with open(out / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[1]["variant"] == "greedy(N=1,w=4,center=previous)"
        assert rows[1]["output_match"] == "1"

    def test_each_variant_runs_once(self, tmp_path, monkeypatch):
        runs, real = [], cli_mod.generate

        def counted(*args, **kwargs):
            runs.append(args[1].cache.describe())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "generate", counted)
        path, out = write_config(tmp_path)
        assert main(["bench", "--config", str(path), "--deterministic",
                     "--variants", "decode:8,none,decode:8"]) == EXIT_OK
        assert runs == ["none", "decode(N=8)"]
        with open(out / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["variant"] for row in rows] == [
            "decode(N=8)", "none", "decode(N=8)"]
        assert rows[0] == rows[2]

    def test_repeat_median(self, tmp_path):
        path, out = write_config(tmp_path, deterministic=False)
        assert main(["bench", "--config", str(path),
                     "--variants", "none", "--repeat", "3"]) == EXIT_OK
        with open(out / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["tokens_per_s"]) > 0

    @pytest.mark.parametrize("text,name,part", [
        ("decode:x", "refresh_interval", "x"),
        ("greedy:8:x", "window_size", "x"),
        ("greedy:8:4:left", "window_center", "left"),
    ])
    def test_bad_variant_parameter_named(self, tmp_path, capsys, text, name,
                                         part):
        path, _ = write_config(tmp_path)
        assert main(["bench", "--config", str(path),
                     "--variants", f"none,{text}"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: cache variant '{text}': bad {name} '{part}'\n")

    def test_bad_variant_exit_2(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        # an unknown variant; greedy under low_confidence remasking, which
        # the sampler config rejects; a refresh interval on prefill; a
        # repeat count below 1
        for options in (["--variants", "none,decoe:8"],
                        ["--variants", "none,greedy:2:4"],
                        ["--variants", "none,prefill:4"],
                        ["--variants", "none", "--repeat", "0"]):
            assert main(["bench", "--config", str(path),
                         *options]) == EXIT_CONFIG
            assert "config error" in capsys.readouterr().err


def stub_threadpoolctl(apply):
    """A ``threadpoolctl`` module whose ``threadpool_limits(limits=n)``
    calls ``apply(n)`` on entry and nothing else."""
    module = types.ModuleType("threadpoolctl")

    @contextlib.contextmanager
    def threadpool_limits(limits):
        apply(limits)
        yield

    module.threadpool_limits = threadpool_limits
    return module


class TestThreadCap:
    @pytest.fixture
    def two_threads(self):
        """numpy's OpenBLAS at two threads; its count restored after."""
        get, set_ = _openblas_threads()
        before = get()
        set_(2)
        yield get, set_
        set_(before)

    def test_deterministic_caps_blas_at_one(self):
        get, _ = _openblas_threads()
        before = get()
        with _thread_cap(True):
            assert get() == 1
        assert get() == before

    def test_bundled_openblas_capped_without_threadpoolctl(
            self, two_threads, monkeypatch):
        get, _ = two_threads
        entered = []
        monkeypatch.setitem(sys.modules, "threadpoolctl",
                            stub_threadpoolctl(entered.append))
        with _thread_cap(True):
            assert get() == 1
        assert get() == 2
        assert entered == []

    def test_threadpoolctl_caps_without_bundled_openblas(self, monkeypatch):
        entered = []
        monkeypatch.setitem(sys.modules, "threadpoolctl",
                            stub_threadpoolctl(entered.append))
        monkeypatch.setattr(cli_mod, "_openblas_threads", lambda: None)
        with _thread_cap(True):
            assert entered == [1]

    def test_no_way_to_cap_refused(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        monkeypatch.setattr(cli_mod, "_openblas_threads", lambda: None)
        with pytest.raises(ConfigError, match="neither threadpoolctl nor"):
            with _thread_cap(True):
                pass


class TestAnalyzeCommand:
    def test_full_pipeline(self, tmp_path):
        path, out = write_config(tmp_path, sampler={"snapshot_layer": 1})
        assert main(["generate", "--config", str(path)]) == EXIT_OK
        assert main(["analyze", str(out / "trace.jsonl")]) == EXIT_OK
        with open(out / "dynamics_key_euclidean.csv") as fh:
            rows = list(csv.reader(fh))
        matrix = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
        assert matrix.shape == (8, 8)
        np.testing.assert_array_equal(matrix, matrix.T)
        np.testing.assert_array_equal(np.diag(matrix), 0.0)

    def test_missing_trace_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "absent" / "trace.jsonl"
        assert main(["analyze", str(trace)]) == EXIT_CONFIG
        assert (capsys.readouterr().err
                == f"config error: trace {trace} not found\n")

    def test_missing_snapshots_exit_4(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == EXIT_OK
        assert main(["analyze", str(out / "trace.jsonl")]) == EXIT_NO_SNAPSHOTS
        assert "snapshot" in capsys.readouterr().err

    def test_single_snapshot_exit_4(self, tmp_path, capsys):
        path, out = write_config(tmp_path, sampler={"steps": 1, "block_size": 16})
        assert main(["generate", "--config", str(path),
                     "--snapshots", "0"]) == EXIT_OK
        assert main(["analyze", str(out / "trace.jsonl")]) == EXIT_NO_SNAPSHOTS
        assert "1 snapshot step(s)" in capsys.readouterr().err

    def test_two_steps(self, tmp_path):
        # gen 16 in one transition: each top-2 column holds one step, and
        # the reveal-spike fraction is undefined, not 0
        path, out = write_config(tmp_path, sampler={
            "gen_len": 16, "steps": 2, "block_size": 16, "snapshot_layer": 1})
        assert main(["generate", "--config", str(path)]) == EXIT_OK
        proc = run_cli("analyze", str(out / "trace.jsonl"))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert len(list(out.glob("dynamics_*.csv"))) == 6
        assert ("(reveal-spike fraction undefined: one transition"
                in proc.stdout), proc.stdout


def _npz_renamed(path):
    """Replace an .npy file by an .npz archive under the same name."""
    np.savez(path.with_suffix(".npz"), snapshot=np.load(path))
    path.with_suffix(".npz").replace(path)


def run_cli(*argv, stdout=subprocess.PIPE, **env):
    """Run the CLI in a fresh interpreter, as a shell would, so an uncaught
    exception shows up as a traceback on stderr and exit status 1; ``env``
    adds environment variables."""
    src = str(Path(dkvcache.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dkvcache.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


class TestExitCodes:
    """One test per failure path that once ended in a traceback."""

    @pytest.mark.parametrize("name,corrupt", [
        ("keys", lambda p: p.write_bytes(b"not an npy file\n" * 8)),
        ("keys", lambda p: p.write_bytes(p.read_bytes()[:-100])),
        ("values", lambda p: p.write_bytes(b"")),
        ("keys", _npz_renamed),
        ("values", lambda p: np.save(p, np.load(p)[:, :, :-1])),
        ("decode_steps", lambda p: np.save(p, np.load(p)[:-1])),
    ], ids=["garbage", "truncated", "empty", "npz", "shape-mismatch",
            "short-decode-steps"])
    def test_unusable_snapshots_exit_4(self, tmp_path, name, corrupt):
        path, out = write_config(tmp_path, sampler={"snapshot_layer": 1})
        assert main(["generate", "--config", str(path)]) == EXIT_OK
        corrupt(out / f"snapshots_{name}.npy")
        proc = run_cli("analyze", str(out / "trace.jsonl"))
        assert proc.returncode == EXIT_NO_SNAPSHOTS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "unusable snapshots" in proc.stderr

    def test_generate_output_under_file_exit_2(self, tmp_path):
        (tmp_path / "blocker").write_text("a regular file\n")
        path, _ = write_config(tmp_path, output_dir="blocker/out")
        proc = run_cli("generate", "--config", str(path))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("overrides,named", [
        ({"sampler": {"gen_len": 16, "steps": 1, "block_size": 8}},
         "steps (1) must be in [2, 16]"),
        ({"sampler": {"sample_seed": -1}}, "sample_seed must be >= 0"),
        ({"model": {"weight_seed": -1}}, "weight_seed must be >= 0"),
        ({"prompt": [1, 10**29]}, f"prompt: {10**29} is not a token id"),
        # numpy refuses the 4.55 PiB embedding without touching memory
        ({"model": {"vocab_size": 10**13}}, "Unable to allocate"),
    ], ids=["infeasible-schedule", "negative-seed", "negative-weight-seed",
            "prompt-past-int64", "model-too-large"])
    def test_bad_run_config_exit_2(self, tmp_path, overrides, named):
        path, _ = write_config(tmp_path, **overrides)
        proc = run_cli("generate", "--config", str(path))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert named in proc.stderr

    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_exit_141(self, tmp_path, unbuffered):
        # the pipe's read end is closed before the CLI starts, as when
        # `dkvcache generate ... | true` has already exited
        path, _ = write_config(tmp_path)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli("generate", "--config", str(path),
                           stdout=write_end, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BROKEN_PIPE, proc.stderr
        assert proc.stderr == ""

    def test_analyze_output_under_file_exit_2(self, tmp_path):
        # an output directory under a regular file, then a missing trace
        path, out = write_config(tmp_path, sampler={"snapshot_layer": 1})
        assert main(["generate", "--config", str(path)]) == EXIT_OK
        (tmp_path / "blocker").write_text("a regular file\n")
        for argv in ([str(out / "trace.jsonl"), "--output-dir",
                      str(tmp_path / "blocker" / "out")],
                     [str(out / "absent.jsonl")]):
            proc = run_cli("analyze", *argv)
            assert proc.returncode == EXIT_CONFIG, proc.stderr
            assert "Traceback" not in proc.stderr
            assert "config error" in proc.stderr


class TestSelftestCommand:
    def test_clean_build_passes(self, capsys):
        start = time.perf_counter()
        assert main(["selftest"]) == EXIT_OK
        assert time.perf_counter() - start < 120
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("fault, check", [
        ("layout", "kept rows oracle"), ("rope", "rotary reference"),
        ("rope-freq", "rotary reference")],
        ids=["layout", "rope", "rope-freq"])
    def test_fault_injection_names_criterion(self, capsys, fault, check):
        # each fault breaks one mechanism; only its own check sees it
        assert main(["selftest", "--fault-inject", fault]) == EXIT_SELFTEST_FAIL
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines
                if not line.startswith("PASS")] == [f"FAIL  {check}"]

    def test_unknown_fault_rejected(self):
        proc = run_cli("selftest", "--fault-inject", "bogus")
        assert proc.returncode == EXIT_CONFIG
        assert "invalid choice: 'bogus'" in proc.stderr
