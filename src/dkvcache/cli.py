"""Command-line entry points: generate, bench, analyze, selftest.

The run config is a strict JSON file: unknown keys are rejected so typos
in variant names surface immediately. Under ``--deterministic`` the BLAS
thread pool is capped at one thread and wall-clock fields are suppressed,
which makes every output file byte-reproducible for a fixed config.
Otherwise the BLAS library's own variables (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``) set the pool.

Commands raise; ``main`` alone turns a failure into an exit code. 0 is
success, 1 a failed selftest, 2 a config, input file or output path
problem (``ConfigError`` or ``OSError``) or a model too large to
allocate (``MemoryError``), 3 a failed generation
(``GenerationError``; ``generate`` writes the partial trace first), 4
no usable snapshots for ``analyze``, which that command reports itself,
and 141 a closed stdout (``BrokenPipeError``), which prints nothing.
Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import json
import os
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis
from .cache_engine import (
    CacheVariant,
    VariantKind,
    WindowCenter,
    write_cache_debug,
)
from .model_core import ConfigError, ModelConfig, init_weights
from .sampler import GenerationError, Remasking, SamplerConfig, generate
from .selftest import FAULTS, run_selftest
from .trace import StepTrace

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_NO_SNAPSHOTS = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: a shell's status for a killed writer


@dataclass
class RunConfig:
    model: ModelConfig
    sampler: SamplerConfig
    prompt: np.ndarray
    output_dir: Path
    deterministic: bool


def _take(obj, context: str, required, optional=()) -> dict:
    """``obj`` once it is known to be a JSON object that holds every
    ``required`` key and no key outside ``required`` and ``optional``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"'{context}' must be a JSON object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(
            f"unknown field '{context}.{sorted(unknown)[0]}'")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(
            f"missing field '{context}.{sorted(missing)[0]}'")
    return obj


def _schema(cls, skip=()) -> tuple[list, list]:
    """(required, optional) field names of dataclass ``cls`` bar ``skip``;
    a field is optional when it has a default, which an absent key takes."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in skip]
    return ([f.name for f in fields if f.default is dataclasses.MISSING],
            [f.name for f in fields if f.default is not dataclasses.MISSING])


def _typed(fields: dict, context: str, types: dict) -> None:
    """Reject a JSON string or boolean the CLI converts when its JSON type
    is not ``types[name]``; the config classes check every other field."""
    for name, allowed in types.items():
        if name in fields and not isinstance(fields[name], allowed):
            raise ConfigError(f"'{context}.{name}' has type "
                              f"{type(fields[name]).__name__}")


def _parse_cache(obj) -> CacheVariant:
    params = dict(_take(obj, "cache", ["variant"],
                        _schema(CacheVariant, skip={"kind"})[1]))
    _typed(params, "cache", {"variant": str, "window_center": str})
    try:
        kind = VariantKind(params.pop("variant").lower())
        if "window_center" in params:
            params["window_center"] = WindowCenter(params["window_center"])
        return CacheVariant.of(kind, **params)
    except ValueError as exc:
        raise ConfigError(f"cache: {exc}") from exc


def _parse_prompt(value, base_dir: Path) -> np.ndarray:
    if isinstance(value, dict):
        _take(value, "prompt", ["file"])
        _typed(value, "prompt", {"file": str})
        try:
            value = [int(tok) for tok in
                     (base_dir / value["file"]).read_text().split()]
        except ValueError as exc:
            raise ConfigError(f"prompt file {value['file']}: {exc}") from exc
    if not isinstance(value, list):
        raise ConfigError("prompt: expected an id list or {\"file\": path}")
    bad = [v for v in value if isinstance(v, bool) or not isinstance(v, int)
           or not -2**63 <= v < 2**63]
    if bad:
        raise ConfigError(f"prompt: {bad[0]!r} is not a token id")
    return np.asarray(value, dtype=np.int64)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except ValueError as exc:  # also a file that is not UTF-8
        raise ConfigError(f"invalid JSON: {exc}") from exc
    top = _take(raw, "run",
                ["model", "sampler", "cache", "prompt", "output_dir"],
                ["deterministic"])
    _typed(top, "run", {"output_dir": str, "deterministic": bool})
    fields = _take(top["model"], "model", *_schema(ModelConfig))
    try:
        model = ModelConfig(**fields)
    except ConfigError as exc:
        raise ConfigError(f"model: {exc}") from exc
    fields = dict(_take(top["sampler"], "sampler",
                        *_schema(SamplerConfig, skip={"cache"})))
    _typed(fields, "sampler", {"remasking": str})
    cache = _parse_cache(top["cache"])
    try:
        if "remasking" in fields:
            fields["remasking"] = Remasking(fields["remasking"])
        sampler = SamplerConfig(**fields, cache=cache)
    except ValueError as exc:
        raise ConfigError(f"sampler: {exc}") from exc

    return RunConfig(
        model=model,
        sampler=sampler,
        prompt=_parse_prompt(top["prompt"], path.parent),
        output_dir=Path(top["output_dir"]),
        deterministic=top.get("deterministic", False),
    )


def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None
    when that library is not loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "scipy_openblas" in line and ".so" in line})
        lib = ctypes.CDLL(libs[0])
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, IndexError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _thread_cap(deterministic: bool):
    """Pin the BLAS kernels to one thread in deterministic mode; otherwise
    leave the pool as the BLAS library's own variables set it.

    The cap goes through numpy's bundled OpenBLAS when it is loaded, its
    count restored afterwards, and through threadpoolctl only when it is
    not. Deterministic mode is refused when neither can apply the cap.
    """
    if not deterministic:
        yield
        return
    blas = _openblas_threads()
    if blas is None:
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            raise ConfigError(
                "deterministic mode cannot cap BLAS threads: neither "
                "threadpoolctl nor numpy's bundled OpenBLAS is "
                "available") from None
        with threadpool_limits(limits=1):
            yield
        return
    get, set_ = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _write_sequence(tokens: np.ndarray, path: Path) -> None:
    path.write_text(" ".join(str(int(t)) for t in tokens) + "\n")


def _write_snapshots(trace: StepTrace, out_dir: Path) -> None:
    keys, values, decode_steps = trace.snapshot_arrays()
    np.save(out_dir / "snapshots_keys.npy", keys)
    np.save(out_dir / "snapshots_values.npy", values)
    np.save(out_dir / "snapshots_decode_steps.npy", decode_steps)
    (out_dir / "snapshots_meta.json").write_text(json.dumps({
        "snapshot_layer": trace.snapshot_layer,
        "prompt_len": trace.prompt_len,
        "gen_len": trace.gen_len,
        "seq_len": trace.seq_len,
        "steps": trace.total_steps,
        "distance_space": "post-rotary keys/values, full concatenated "
                          "head vectors, natural position order",
    }, indent=2) + "\n")


def _write_outputs(tokens, trace: StepTrace, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_sequence(tokens, out_dir / "sequence.txt")
    trace.write_jsonl(out_dir / "trace.jsonl")
    trace.write_csv(out_dir / "trace_summary.csv")
    write_cache_debug(trace.records, out_dir / "cache_debug.jsonl")
    analysis.build_report(trace).write_json(out_dir / "report.json")
    if trace.snapshot_keys is not None:
        _write_snapshots(trace, out_dir)


def cmd_generate(args) -> int:
    cfg = load_run_config(args.config)
    cfg.deterministic |= args.deterministic
    if args.snapshots is not None:
        cfg.sampler = replace(cfg.sampler, snapshot_layer=args.snapshots)
    with _thread_cap(cfg.deterministic):
        weights = init_weights(cfg.model)
        try:
            tokens, trace = generate(cfg.prompt, cfg.sampler, weights,
                                     timed=not cfg.deterministic)
        except GenerationError as exc:
            cfg.output_dir.mkdir(parents=True, exist_ok=True)
            exc.partial_trace.write_jsonl(cfg.output_dir / "trace.jsonl")
            raise GenerationError(f"{exc} (partial trace written)",
                                  exc.partial_trace) from exc
    _write_outputs(tokens, trace, cfg.output_dir)
    print(f"wrote sequence.txt, trace.jsonl, report.json to {cfg.output_dir}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = load_run_config(args.config)
    cfg.deterministic |= args.deterministic
    try:
        variants = [CacheVariant.parse(v) for v in args.variants.split(",")]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.repeat < 1:
        raise ConfigError("--repeat must be >= 1")

    baseline = CacheVariant(VariantKind.NONE)
    results = {}
    with _thread_cap(cfg.deterministic):
        weights = init_weights(cfg.model)
        # the baseline first, then each variant once however often listed
        for variant in dict.fromkeys((baseline, *variants)):
            scfg = replace(cfg.sampler, cache=variant)
            speeds = []
            for _ in range(args.repeat):
                tokens, trace = generate(cfg.prompt, scfg, weights,
                                         timed=not cfg.deterministic)
                report = analysis.build_report(trace)
                if report.tokens_per_second is not None:
                    speeds.append(report.tokens_per_second)
            results[variant] = (tokens, report,
                                statistics.median(speeds) if speeds else None)
    baseline_tokens, base_report, _ = results[baseline]

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.output_dir / "bench.csv"
    with open(out_path, "w", newline="") as fh:
        # greedy's variant name holds commas; the writer quotes it
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow("variant tokens_per_s cache_ratio total_rows "
                        "mac_reduction output_match".split())
        for variant in variants:
            tokens, report, tps = results[variant]
            row = [variant.describe(), "" if tps is None else f"{tps:.3f}",
                   f"{report.cache_ratio:.6f}", report.total_query_rows,
                   f"{1.0 - report.total_macs / base_report.total_macs:.6f}",
                   int(np.array_equal(tokens, baseline_tokens))]
            writer.writerow(row)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    trace_path = Path(args.trace)
    run_dir = trace_path.parent
    needed = [run_dir / "snapshots_keys.npy", run_dir / "snapshots_values.npy",
              run_dir / "snapshots_decode_steps.npy"]
    if not trace_path.exists():
        raise ConfigError(f"trace {trace_path} not found")
    if not all(p.exists() for p in needed):
        print("no snapshots found next to the trace; rerun generate with "
              "sampler.snapshot_layer (or --snapshots LAYER)", file=sys.stderr)
        return EXIT_NO_SNAPSHOTS
    try:
        result = analysis.kv_dynamics(*(np.load(p) for p in needed))
    except (OSError, EOFError, ValueError) as exc:  # EOFError: empty file
        print(f"unusable snapshots next to the trace: {exc}", file=sys.stderr)
        return EXIT_NO_SNAPSHOTS
    out_dir = Path(args.output_dir) if args.output_dir else run_dir
    written = analysis.write_dynamics_csvs(result, out_dir)
    spike = (f"reveal-spike fraction undefined: {result.spike_undefined}"
             if result.spike_undefined else
             f"reveal-spike fraction {result.spike_fraction:.3f}")
    print(f"wrote {len(written)} dynamics files to {out_dir} ({spike})")
    return EXIT_OK


def cmd_selftest(args) -> int:
    ok = run_selftest(fault_inject=args.fault_inject)
    return EXIT_OK if ok else EXIT_SELFTEST_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkvcache",
        description="Delayed KV-cache inference engine for masked diffusion "
                    "language models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run one generation")
    gen.add_argument("--config", required=True, help="run config JSON")
    gen.add_argument("--deterministic", action="store_true",
                     help="single-thread kernels, suppress wall-clock fields")
    gen.add_argument("--snapshots", type=int, default=None, metavar="LAYER",
                     help="capture per-step K/V snapshots for this layer")
    gen.set_defaults(fn=cmd_generate)

    bench = sub.add_parser("bench", help="compare cache variants on one config")
    bench.add_argument("--config", required=True)
    bench.add_argument("--variants", required=True,
                       help="comma list, e.g. none,decode:8,greedy:2:4")
    bench.add_argument("--repeat", type=int, default=1)
    bench.add_argument("--deterministic", action="store_true")
    bench.set_defaults(fn=cmd_bench)

    ana = sub.add_parser("analyze", help="representation dynamics from a trace")
    ana.add_argument("trace", help="path to trace.jsonl (snapshots alongside)")
    ana.add_argument("--output-dir", default=None)
    ana.set_defaults(fn=cmd_analyze)

    selftest = sub.add_parser("selftest", help="fast embedded acceptance subset")
    selftest.add_argument("--fault-inject", default=None, choices=FAULTS,
                          help=argparse.SUPPRESS)
    selftest.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    """Run one command; the only place a failure becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone; devnull keeps the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GenerationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
