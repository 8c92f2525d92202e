"""Interleaved parent/change benchmark pairs, summarised into one file.

Run from a clean checkout of the change:

    python3 tools/bench_pairs.py --parent REV --pairs 10 --seconds 55 \\
        --first-seed 2301 --name SLUG

The committed tree of each commit, the parent ``REV`` and ``HEAD``, is
exported with ``git archive`` into a fresh temporary directory (under
``$TMPDIR``), so both sides run from committed files alike and nothing is
registered in the repository; both are deleted afterwards. Pair ``i``
runs each tree's own benchmark, the ``command`` of ``BENCHMARK.json``
with ``--workload all --seed FIRST_SEED+i --seconds S``; the parent goes
first in even pairs and the change in odd ones. One run takes about
``2 * S`` seconds plus set-up: ten pairs at 55 s took 37 minutes on a
2-vCPU x86 host.

The tool refuses a dirty working tree. It stops without writing anything
when a run exits non-zero, reports ``correct: false`` or reports a failed
operation. Otherwise it writes ``BENCH_<SLUG>.json`` at the root of the
checkout: both shas, the host as the runs report it (python, numpy, the
OpenBLAS build, its thread count and nproc), the exact commands, every
run's end-to-end metrics per pair, and per metric both medians, the
parent's interquartile range, in how many pairs the change was better
and a verdict under the metric's ``bound`` in ``BENCHMARK.json``:
``gain``, ``worse``, ``unresolved`` or ``within bound`` (see
``_verdict``). Beside them, not as a verdict metric, it records each
side's MACs per second per workload (see ``count_macs`` and
``mac_rates``). Exits 0 when the file is written, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench's human-readable environment line; the OpenBLAS build string
# holds runs of spaces of its own
ENV_LINE = re.compile(r"env python (?P<python>\S+)  numpy (?P<numpy>\S+)  "
                      r"blas (?P<blas>.*)  blas_threads (?P<blas_threads>\d+)"
                      r"  nproc (?P<nproc>\d+)")


class Refused(RuntimeError):
    """The pairs cannot be reported."""


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, **kwargs)


def _sha(rev: str) -> str:
    try:
        return _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}",
                    text=True).stdout.strip()
    except subprocess.CalledProcessError:
        raise Refused(f"{rev!r} names no commit") from None


def _export(sha: str, dest: Path) -> None:
    """Write the committed tree of ``sha`` into ``dest``."""
    archive = _git("archive", "--format=tar", sha).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(environment, {metric: value}) of one ``--workload all`` run's
    standard output; raises Refused unless every workload's run is correct
    with no failed operation and reported the same environment."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise Refused("the run printed no result line") from None
    if not result["correct"] or result["failed"]:
        raise Refused(f"the run failed {result['failed']} of "
                      f"{result['attempted']} operations "
                      f"(correct: {str(result['correct']).lower()})")
    envs = [m.groupdict() for m in map(ENV_LINE.fullmatch, lines) if m]
    if not envs or any(env != envs[0] for env in envs):
        raise Refused("the run reported no environment, or more than one")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return envs[0], metrics


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _verdict(entry: dict, parent: list[float], change: list[float],
             bound: float) -> str:
    """The verdict on one metric's ``summarise`` entry and its runs:

    - ``gain``: the change is better in at least nine tenths of the pairs,
      ties counting for neither, and its median is better by more than
      the parent's interquartile range;
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` times the parent's median;
    - ``unresolved``: the parent's interquartile range is wider than that,
      unless every run of the change beats every run of the parent;
    - ``within bound``: any other case.
    """
    sign = 1 if entry["better"] == "higher" else -1
    gap = sign * (entry["change_median"] - entry["parent_median"])
    allowed = bound * abs(entry["parent_median"])
    if (10 * entry["change_better_in"] >= 9 * entry["pairs"]
            and gap > entry["parent_iqr"]):
        return "gain"
    if -gap > allowed:
        return "worse"
    every_run_beats = (min(sign * c for c in change)
                       > max(sign * p for p in parent))
    if entry["parent_iqr"] > allowed and not every_run_beats:
        return "unresolved"
    return "within bound"


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of every workload the pairs ran: both
    medians, the parent's interquartile range, the number of pairs in
    which the change was strictly better and the ``verdict`` under the
    metric's ``bound``. ``pairs`` hold ``parent`` and ``change`` dicts of
    metric values keyed ``workload/name``; ``end_to_end`` is
    ``BENCHMARK.json``'s list of the same name."""
    specs = {m["name"]: m for m in end_to_end}
    summary = {}
    for key in pairs[0]["parent"]:
        spec = specs.get(key.split("/")[-1])
        if spec is None:
            continue
        parent = [pair["parent"][key] for pair in pairs]
        change = [pair["change"][key] for pair in pairs]
        q1, q3 = _quartiles(parent)
        sign = 1 if spec["better"] == "higher" else -1
        entry = summary[key] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q3 - q1,
            "change_better_in": sum(sign * (c - p) > 0
                                    for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
        entry["verdict"] = _verdict(entry, parent, change, spec["bound"])
    return summary


# Run in a tree's root with the seed as its argument: one untimed
# generation of each perfbench workload's config on the workload's first
# input, printing {workload: [total MACs, gen_len]}
_COUNT_MACS = """\
import json, sys
sys.path[:0] = ["src", "perfbench"]
import dkvcache
from workloads import TOY_MODEL, WORKLOADS, make_inputs
weights = dkvcache.init_weights(dkvcache.ModelConfig(**TOY_MODEL))
macs = {}
for name, w in WORKLOADS.items():
    inp = make_inputs(w, int(sys.argv[1]))[0]
    cfg = dkvcache.SamplerConfig(
        gen_len=w.gen_len, steps=w.steps, block_size=w.block_size,
        remasking=dkvcache.Remasking(w.remasking), temperature=0.0,
        sample_seed=inp.sample_seed,
        cache=dkvcache.CacheVariant.parse(w.variant))
    _, trace = dkvcache.generate(inp.prompt, cfg, weights, timed=False)
    macs[name] = [dkvcache.analysis.build_report(trace).total_macs, w.gen_len]
print(json.dumps(macs))
"""


def count_macs(tree: Path, seed: int) -> dict[str, list[int]]:
    """{workload: [total MACs, gen_len]} of one untimed generation per
    perfbench workload, run by ``tree``'s own package on
    ``make_inputs(workload, seed)[0]``; ``build_report`` counts the MACs
    exactly."""
    proc = subprocess.run([sys.executable, "-B", "-c", _COUNT_MACS, str(seed)],
                          cwd=tree, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode:
        raise Refused(f"counting MACs in {tree.name} exited {proc.returncode}")
    return json.loads(proc.stdout)


def mac_rates(counts: dict[str, list[int]], summary: dict,
              side: str) -> dict:
    """Per workload of ``count_macs``'s ``counts``: ``macs_per_token``,
    total MACs over gen_len, and ``macs_per_s``, that times ``side``'s
    tokens_per_s median in ``summary``. This puts both workloads on one
    scale with a large sgemm; it is not a verdict metric."""
    rates = {}
    for name, (total, gen_len) in counts.items():
        per_token = total / gen_len
        tokens_per_s = summary[f"{name}/tokens_per_s"][f"{side}_median"]
        rates[name] = {"macs_per_token": per_token,
                       "macs_per_s": per_token * tokens_per_s}
    return rates


def _run(tree: Path, argv: list[str]) -> tuple[dict, dict]:
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode:
        raise Refused(f"{' '.join(argv)} in {tree.name} exited "
                      f"{proc.returncode}")
    return parse_run(proc.stdout)


def pairs_file(args) -> Path:
    """Run the pairs and write their file; returns its path."""
    if _git("status", "--porcelain", text=True).stdout.strip():
        raise Refused("the working tree has uncommitted changes")
    shas = {"parent": _sha(args.parent), "change": _sha("HEAD")}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs, envs = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in shas}
        for side, tree in trees.items():
            _export(shas[side], tree)
        macs = {side: count_macs(tree, args.first_seed)
                for side, tree in trees.items()}
        for i in range(args.pairs):
            seed = args.first_seed + i
            command = [*bench["command"], "--workload", "all", "--seed",
                       str(seed), "--seconds", f"{args.seconds:g}"]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0], "command": command}
            for side in order:
                env, pair[side] = _run(trees[side], command)
                envs.append(env)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed} done",
                  file=sys.stderr)
    if any(env != envs[0] for env in envs):
        raise Refused("the runs reported different environments")
    summary = summarise(pairs, bench["end_to_end"])
    record = {
        "name": args.name,
        "shas": shas,
        "host": {**envs[0], "platform": platform.platform()},
        "invocation": ["python3", "tools/bench_pairs.py",
                       "--parent", args.parent, "--pairs", str(args.pairs),
                       "--seconds", f"{args.seconds:g}",
                       "--first-seed", str(args.first_seed),
                       "--name", args.name],
        "workdir": "the root of a git archive export of each sha",
        "pairs": pairs,
        "summary": summary,
        "macs": {side: mac_rates(macs[side], summary, side) for side in shas},
    }
    path = ROOT / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="perfbench's --seconds, per workload")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="pair i runs seed FIRST_SEED + i on both sides")
    parser.add_argument("--name", required=True,
                        help="the file written is BENCH_<NAME>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not re.fullmatch(r"[\w.-]+", args.name):
        parser.error("--pairs must be >= 1 and --name a plain file name part")
    try:
        path = pairs_file(args)
    except Refused as exc:
        print(f"bench_pairs: refused: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
