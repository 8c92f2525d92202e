"""``tools/bench_pairs.py``'s parser and summariser on fake perfbench
output; the tool's runs themselves take minutes and are not run here."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLAS = ("OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
        "Haswell MAX_THREADS=64")
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def fake_run(tokens_per_s, step_ms_p50, *, correct=True, failed=0,
             env=True):
    """Standard output of ``perfbench/run.py --workload all``, cut down to
    two workloads and three metrics; ``rows_per_token`` is fixed."""
    lines, metrics = [], {}
    for name in ("decode-long", "greedy-random"):
        lines.append(f"workload {name}  seed 3  trace 0  closed loop, "
                     "1 caller, 55.0s")
        if env:
            lines.append(f"env python 3.11.7  numpy 2.4.6  blas {BLAS}  "
                         "blas_threads 1  nproc 2")
        for metric, value, unit in (
                ("tokens_per_s", tokens_per_s, "tok/s"),
                ("step_ms_p50", step_ms_p50, "ms"),
                ("rows_per_token", 145.875, "rows/token")):
            metrics[f"{name}/{metric}"] = {"value": value, "unit": unit}
    lines.append(json.dumps({"correct": correct, "attempted": 40,
                             "failed": failed, "metrics": metrics}))
    return "\n".join(lines) + "\n"


@pytest.fixture
def two_runs():
    """A parent's and a change's run output."""
    return fake_run(160.0, 12.0), fake_run(170.0, 11.5)


def test_summary_of_two_runs(tool, two_runs):
    (env, parent), (_, change) = map(tool.parse_run, two_runs)
    assert env == {"python": "3.11.7", "numpy": "2.4.6", "blas": BLAS,
                   "blas_threads": "1", "nproc": "2"}
    summary = tool.summarise([{"parent": parent, "change": change}],
                             END_TO_END)
    assert set(summary) == {f"{w}/{m}" for w in ("decode-long", "greedy-random")
                            for m in ("tokens_per_s", "step_ms_p50",
                                      "rows_per_token")}
    assert summary["decode-long/tokens_per_s"] == {
        "unit": "tok/s", "better": "higher", "parent_median": 160.0,
        "change_median": 170.0, "parent_iqr": 0.0, "change_better_in": 1,
        "pairs": 1, "verdict": "gain"}
    assert summary["greedy-random/step_ms_p50"]["change_better_in"] == 1
    # a tie is not better
    assert summary["decode-long/rows_per_token"]["change_better_in"] == 0


def test_medians_quartiles_and_direction(tool):
    pairs = [{"parent": {"w/tokens_per_s": p, "w/step_ms_p50": ps},
              "change": {"w/tokens_per_s": c, "w/step_ms_p50": cs}}
             for p, c, ps, cs in ((100, 120, 10, 9), (110, 105, 9, 9.5),
                                  (130, 140, 8, 7), (150, 150, 7, 6))]
    summary = tool.summarise(pairs, END_TO_END)
    tps, step = summary["w/tokens_per_s"], summary["w/step_ms_p50"]
    assert (tps["parent_median"], tps["change_median"]) == (120, 130)
    # inclusive quartiles of 100, 110, 130, 150: 107.5 and 135
    assert tps["parent_iqr"] == pytest.approx(27.5)
    assert tps["change_better_in"] == 2
    assert step["change_better_in"] == 3  # lower is better


UNEVEN = [10, 10, 10, 50, 50, 50, 50, 90, 90, 100]  # quartiles 20 and 80


@pytest.mark.parametrize("parent,change,expected", [
    # better in 10 of 10, medians 104.5 -> 124.5 against an IQR of 4.5
    (range(100, 110), range(120, 130), "gain"),
    # 104.5 -> 74.5 is worse by more than 0.25 * 104.5
    (range(100, 110), range(70, 80), "worse"),
    # a parent IQR of 60 is wider than 0.25 * 50
    (UNEVEN, [v - 1 for v in UNEVEN], "unresolved"),
    # ... unless every run of the change beats every run of the parent
    (UNEVEN, [101] * 10, "within bound"),
    (range(100, 110), range(99, 109), "within bound"),
], ids=["gain", "worse", "unresolved", "every-run-beats", "within-bound"])
def test_verdict(tool, parent, change, expected):
    pairs = [{side: tool.parse_run(fake_run(float(tps), 12.0))[1]
              for side, tps in (("parent", p), ("change", c))}
             for p, c in zip(parent, change)]
    summary = tool.summarise(pairs, END_TO_END)
    assert summary["decode-long/tokens_per_s"]["verdict"] == expected
    # every step_ms_p50 is the same: a tie
    assert summary["decode-long/step_ms_p50"]["verdict"] == "within bound"


@pytest.mark.parametrize("output,reason", [
    (fake_run(160.0, 12.0, correct=False, failed=0), "correct: false"),
    (fake_run(160.0, 12.0, failed=1), "failed 1 of 40 operations"),
    (fake_run(160.0, 12.0, env=False), "no environment"),
    ("perfbench: numpy's bundled scipy-openblas is not loaded\n",
     "no result line"),
], ids=["incorrect", "failed-operation", "no-environment", "no-result"])
def test_run_refused(tool, output, reason):
    with pytest.raises(tool.Refused, match=reason):
        tool.parse_run(output)


def test_mac_rates(tool, two_runs):
    (_, parent), (_, change) = map(tool.parse_run, two_runs)
    summary = tool.summarise([{"parent": parent, "change": change}],
                             END_TO_END)
    counts = {"decode-long": [1024, 8], "greedy-random": [80, 8]}
    rates = {side: tool.mac_rates(counts, summary, side)
             for side in ("parent", "change")}
    assert rates["parent"] == {
        "decode-long": {"macs_per_token": 128.0, "macs_per_s": 128.0 * 160},
        "greedy-random": {"macs_per_token": 10.0, "macs_per_s": 10.0 * 160}}
    assert rates["change"]["decode-long"]["macs_per_s"] == 128.0 * 170


def test_count_macs_in_checkout(tool):
    # decode's rows per step depend only on the schedule, so decode-long's
    # count is the same for every seed; greedy's windows clip at the
    # region's edges, so greedy-random's is not
    counts = tool.count_macs(ROOT, 1)
    assert counts["decode-long"] == [160_000_512 * 512, 512]
    total, gen_len = counts["greedy-random"]
    assert gen_len == 512 and 0 < total < counts["decode-long"][0]
