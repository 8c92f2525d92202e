"""dkvcache benchmark: closed-loop generation workloads on the toy model.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

One caller runs one operation at a time: a timed ``dkvcache.generate`` call
followed by the four public exporters, the work ``dkvcache generate`` does
after set-up. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced operations and prints per-layer
metrics from spans recorded around the package's public functions. Human
readable lines go first; the last line of standard output is one JSON
object. A failed correctness check marks its operation failed and the run
goes on; a failed reference check or thread pin stops the run before any
number is reported.
"""

import os
import sys

# Pin the BLAS pool before numpy loads it; read back below.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import TOY_MODEL, WORKLOADS, make_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
PERCENTILES = (50, 90, 95, 99, 99.9)

END_TO_END = {"tokens_per_s": "tok/s", "step_ms_p50": "ms", "step_ms_p95": "ms",
              "first_step_ms": "ms", "rows_per_token": "rows/token",
              "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The run cannot report numbers."""


def blas_threads() -> tuple[int, str]:
    """Threads in effect and build string of numpy's bundled OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "scipy_openblas" in line and ".so" in line})
    if not libs:
        raise BenchError("numpy's bundled scipy-openblas is not loaded")
    lib = ctypes.CDLL(libs[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return get_threads(), get_config().decode()


def environment() -> dict:
    threads, config = blas_threads()
    if threads != 1:
        raise BenchError(f"OpenBLAS runs {threads} threads, not 1")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": config, "blas_threads": threads, "nproc": os.cpu_count()}


def import_package():
    """Import dkvcache from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dkvcache" / "__init__.py").is_file():
        raise BenchError(f"no dkvcache sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "dkvcache"]:
        del sys.modules[name]
    # Bytecode is always written, outside the sources, so every set-up but
    # the first in a checkout imports from bytecode in any environment.
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix, sys.dont_write_bytecode = str(OUT / "pycache"), False
    try:
        pkg = importlib.import_module("dkvcache")
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    if Path(pkg.__file__).resolve().parent != (src / "dkvcache").resolve():
        raise BenchError(f"dkvcache imported from {pkg.__file__}")
    return pkg


def set_up(workload, seed: int):
    """Import, weight init and input generation, timed as one set-up."""
    start = perf_counter()
    pkg = import_package()
    weights = pkg.init_weights(pkg.ModelConfig(**TOY_MODEL))
    inputs = make_inputs(workload, seed)
    return perf_counter() - start, pkg, weights, inputs


def run_op(pkg, workload, inp, weights, out_dir: Path):
    """One operation: a timed generation, then the four public exporters."""
    cfg = pkg.SamplerConfig(
        gen_len=workload.gen_len, steps=workload.steps,
        block_size=workload.block_size,
        remasking=pkg.Remasking(workload.remasking), temperature=0.0,
        sample_seed=inp.sample_seed,
        cache=pkg.CacheVariant.parse(workload.variant))
    start = perf_counter()
    _, trace = pkg.generate(inp.prompt, cfg, weights, timed=True)
    trace.write_jsonl(out_dir / "trace.jsonl")
    trace.write_csv(out_dir / "trace_summary.csv")
    pkg.cache_engine.write_cache_debug(trace.records, out_dir / "cache_debug.jsonl")
    pkg.analysis.build_report(trace).write_json(out_dir / "report.json")
    return trace, perf_counter() - start


def percentile_note(samples) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    n = len(samples)
    supported = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    parts = [f"p{p:g} {np.percentile(samples, p):.4g}" for p in supported]
    if not supported:
        parts = [f"median {statistics.median(samples):.4g}"]
    return ", ".join(parts) + f" (n={n})"


def measure(args) -> int:
    workload = WORKLOADS[args.workload]
    env = environment()
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, pkg, weights, inputs = set_up(workload, args.seed)
        setups.append(elapsed)

    failures = (checks.reference_check(pkg, weights, workload.seq_len, args.seed)
                + checks.variant_gate(pkg, weights, args.seed))
    if failures:
        raise BenchError("reference check failed: " + "; ".join(failures))

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"ops-{os.getpid()}"
    scratch.mkdir()
    try:
        warm_up = dataclasses.replace(workload, gen_len=32, steps=16, block_size=32)
        run_op(pkg, warm_up, inputs[0], weights, scratch)  # not measured
        tracer = tracing.Tracer(pkg)
        ops = run_ops(args, pkg, workload, weights, inputs, scratch, tracer,
                      setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for op in ops if op["failures"])
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller, {args.seconds}s")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"operations attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.4g} fraction")
    for i, op in enumerate(ops):
        for msg in op["failures"][:5]:
            print(f"FAILED op {i}: {msg}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {}}
    if failed == 0:
        if args.trace:
            metrics = tracing.layer_metrics(
                tracer, [op for op in ops if op["traced"]], TOY_MODEL)
            metrics.update(overhead_metrics(ops))
            tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz",
                         {"workload": workload.name, "seed": args.seed, **env})
        else:
            metrics = end_to_end(ops, setups)
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:14.6g} {unit:11s} {kind_of(name, unit)}")
        if not args.trace:
            steps = [ms for op in ops for ms in op["millis"]]
            print(f"  step_ms: {percentile_note(steps)}; op tokens_per_s: "
                  f"{percentile_note([op['tokens'] / op['wall'] for op in ops])}; "
                  f"setup_s: {percentile_note(setups)}")
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
    else:
        print("REFUSED: operations failed their checks; no numbers reported")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_ops(args, pkg, workload, weights, inputs, scratch, tracer, setups):
    """Closed loop: run operations for ``--seconds``.

    An operation starts only if one more of average length fits in the
    time left, so a run ends close to ``--seconds``. Under ``--trace 1``
    even operations are traced, odd ones not. One more set-up is timed
    after each operation, so set-up samples span the run as the other
    timings do; its objects are dropped and the loop keeps its own.
    """
    ops = []
    start = perf_counter()
    least = 2 if args.trace else 1  # a traced and an untraced operation
    while len(ops) < least or \
            (perf_counter() - start) * (len(ops) + 1) / len(ops) <= args.seconds:
        op = {"traced": bool(args.trace) and len(ops) % 2 == 0, "failures": []}
        inp = inputs[len(ops) % len(inputs)]
        ops.append(op)
        trace = None
        if op["traced"]:
            tracer.install()
        try:
            with tracer.span("bench.operation", len(ops) - 1) if op["traced"] \
                    else contextlib.nullcontext():
                trace, wall = run_op(pkg, workload, inp, weights, scratch)
        except Exception:  # an operation failure is counted, not fatal
            op["failures"].append(traceback.format_exc(limit=3))
        finally:
            tracer.uninstall()
        if trace is not None:
            op["failures"] += checks.check_operation(pkg, workload, trace, scratch)
            # Keep a summary, not the trace, so memory does not grow with
            # the number of operations.
            op.update(millis=[r.millis for r in trace.records],
                      rows=trace.total_rows, tokens=trace.gen_len, wall=wall,
                      exported=sum((scratch / f).stat().st_size for f in (
                          "trace.jsonl", "trace_summary.csv", "cache_debug.jsonl")))
            if op["traced"]:
                op.update(tracing.trace_counts(trace))
        setups.append(set_up(workload, args.seed)[0])
        gc.collect()  # the replaced modules' cycles, outside any operation
    return ops


def kind_of(name: str, unit: str) -> str:
    """How a number was obtained: timed, counted exactly, or computed."""
    if name in tracing.COMPUTED:
        return "computed from shapes"
    if unit.split("/")[0] in ("rows", "count") or name == "cache_engine.hit_ratio":
        return "exact count"
    return "measured"


def end_to_end(ops, setups) -> dict:
    steps = [ms for op in ops for ms in op["millis"]]
    m = {
        "tokens_per_s": statistics.median(op["tokens"] / op["wall"] for op in ops),
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_p95": float(np.percentile(steps, 95)),
        "first_step_ms": statistics.median(op["millis"][0] for op in ops),
        "rows_per_token": (sum(op["rows"] for op in ops)
                           / sum(op["tokens"] for op in ops)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return {k: (v, END_TO_END[k]) for k, v in m.items()}


def overhead_metrics(ops) -> dict:
    """Traced against untraced tokens/s over the run's alternating operations."""
    def rate(traced):
        return statistics.median(op["tokens"] / op["wall"] for op in ops
                                 if op["traced"] == traced)

    with_spans, without = rate(True), rate(False)
    return {"bench.tokens_per_s_traced": (with_spans, "tok/s"),
            "bench.tokens_per_s_untraced": (without, "tok/s"),
            "bench.trace_overhead": (1.0 - with_spans / without, "fraction")}


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one summary line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        total["correct"] &= child["correct"]
        total["attempted"] += child["attempted"]
        total["failed"] += child["failed"]
        total["metrics"].update(
            {f"{name}/{k}": v for k, v in child["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
