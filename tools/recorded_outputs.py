"""Check deterministic CLI outputs against their recorded sha256 values.

``recorded_outputs.json`` holds a toy model, a base sampler config, a
prompt and fifteen runs, each a cache variant with optional sampler
overrides and ``generate`` arguments, plus the sha256 of every file the
run writes. This script writes each run's config into a temporary
directory, runs ``dkvcache generate --deterministic`` on it, and compares
the hashes of the files it wrote with the record. It then runs
``dkvcache bench --deterministic`` once, on the config of the run named
under ``bench``, and compares ``bench.csv``. Last it runs ``dkvcache
analyze`` on the trace of the run named under ``analyze``, writing to a
directory of its own, and compares the six ``dynamics_*.csv`` files. A
missing, unrecorded or differing file is a mismatch.

The hashes depend on the host's BLAS build, so this is a check to run on
a change and on its parent, not a unit test. Usage:

    python3 tools/recorded_outputs.py [--src DIR] [--update]

``--src`` names the directory that holds the ``dkvcache`` package to run
(default: this checkout's ``src``), so the record can be checked against
another checkout. ``--update`` re-records a deliberate change: it
rewrites only the differing hashes in ``recorded_outputs.json``, printing
each old -> new pair, and drops a file no longer written. Exits 0 when
every hash matches, 1 otherwise, also after ``--update`` has rewritten
some.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "recorded_outputs.json"


def _config(record: dict, run: dict, out_dir: Path) -> dict:
    return {"model": record["model"],
            "sampler": {**record["sampler"], **run.get("sampler", {})},
            "cache": run["cache"], "prompt": record["prompt"],
            "output_dir": str(out_dir), "deterministic": True}


def _run(src: Path, *argv: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-m", "dkvcache.cli", *argv],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def _cli(src: Path, command: str, config: dict, work: Path, args=()) -> None:
    path = work / "config.json"
    path.write_text(json.dumps(config))
    _run(src, command, "--config", str(path), "--deterministic", *args)


def _compare(label: str, out_dir: Path, recorded: dict, update: bool) -> int:
    """Print one line per differing file, or one ``ok`` line; return the
    number of mismatches. With ``update``, set ``recorded`` to what was
    written."""
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out_dir.iterdir()}
    bad = 0
    for name in sorted(written.keys() | recorded.keys()):
        got, want = written.get(name), recorded.get(name)
        if got != want:
            bad += 1
            if update:
                print(f"UPDATE {label}: {name} {want or 'none'} -> "
                      f"{got or 'missing'}")
                if got is None:
                    del recorded[name]
                else:
                    recorded[name] = got
            else:
                print(f"FAIL  {label}: {name} {got or 'missing'} "
                      f"(recorded {want or 'none'})")
    if not bad:
        print(f"ok    {label}: {len(written)} files")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="directory holding the dkvcache package")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the differing hashes in the record")
    args = parser.parse_args(argv)
    record = json.loads(RECORD.read_text())
    runs = {run["name"]: run for run in record["runs"]}
    bad, outs = 0, {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, run in enumerate(record["runs"]):
            work = Path(tmp) / f"run{i}"
            work.mkdir()
            outs[run["name"]] = work / "out"
            _cli(args.src, "generate", _config(record, run, work / "out"),
                 work, run.get("args", ()))
            bad += _compare(run["name"], work / "out", run["sha256"],
                            args.update)
        bench = record["bench"]
        work = Path(tmp) / "bench"
        work.mkdir()
        _cli(args.src, "bench", _config(record, runs[bench["run"]], work / "out"),
             work, ["--variants", bench["variants"]])
        bad += _compare(f"bench {bench['variants']}", work / "out",
                        bench["sha256"], args.update)
        analyze = record["analyze"]
        out = Path(tmp) / "analyze"
        _run(args.src, "analyze", str(outs[analyze["run"]] / "trace.jsonl"),
             "--output-dir", str(out))
        bad += _compare(f"analyze {analyze['run']}", out, analyze["sha256"],
                        args.update)
    total = sum(len(part["sha256"]) for part in
                [*record["runs"], record["bench"], record["analyze"]])
    if bad and args.update:
        # indent 2, integer lists (the prompt) on one line
        text = json.dumps(record, indent=2)
        RECORD.write_text(re.sub(r"\[[\d,\s]*\]",
                                 lambda m: json.dumps(json.loads(m.group())),
                                 text) + "\n")
        print(f"{bad} mismatch(es) re-recorded in {RECORD.name}")
    else:
        print(f"{bad} mismatch(es)" if bad
              else f"all {total} recorded hashes match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
