"""Run traces: per-step counters, optional snapshots, and file exports."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = ["StepAudit", "StepRecord", "StepTrace", "RunReport"]


@dataclass
class StepAudit:
    """Raw per-layer rows captured for byte-level cache audits.

    ``fresh`` holds (positions, keys, values) produced this step per layer;
    ``cached_after`` holds the cache contents right after the commit.
    """

    fresh: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    cached_after: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass
class StepRecord:
    """One step's counters. ``rows_computed`` rows produced K/V in every
    layer; ``logit_rows`` of them also ran the last layer's tail and the
    head."""

    step: int
    masked_count: int
    logit_rows: int
    decoded_positions: tuple[int, ...]
    decoded_ids: tuple[int, ...]
    refresh: bool
    millis: float | None
    block: tuple[int, int]
    cached_positions: np.ndarray  # the plan's int64 arrays, not copies
    compute_set: np.ndarray
    audit: StepAudit | None = None

    @property
    def rows_computed(self) -> int:
        return len(self.compute_set)

    def to_json_obj(self) -> dict:
        return {
            "step": self.step,
            "masked": self.masked_count,
            "decoded_positions": list(self.decoded_positions),
            "rows_computed": self.rows_computed,
            "logit_rows": self.logit_rows,
            "millis": self.millis,
            "refresh": self.refresh,
        }


@dataclass
class StepTrace:
    """Everything recorded about one generation run.

    With a ``snapshot_layer``, ``snapshot_keys`` and ``snapshot_values``
    are that layer's [total_steps, seq, d_model] stores, row t written
    after step t; rows past ``len(records)`` were never written.
    """

    records: list[StepRecord]
    prompt_len: int
    gen_len: int
    total_steps: int
    variant: str
    model_dims: dict
    mask_token_id: int
    snapshot_layer: int | None = None
    final_tokens: np.ndarray | None = None
    snapshot_keys: np.ndarray | None = None
    snapshot_values: np.ndarray | None = None

    @property
    def seq_len(self) -> int:
        return self.prompt_len + self.gen_len

    @property
    def total_rows(self) -> int:
        return sum(rec.rows_computed for rec in self.records)

    def decode_step_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for rec in self.records:
            for pos in rec.decoded_positions:
                out[int(pos)] = rec.step
        return out

    def snapshot_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the [steps, seq, width] key/value snapshots of the
        steps that ran, plus the per-position decode step (-1 for prompt
        positions)."""
        if self.snapshot_keys is None:
            raise ValueError("trace has no snapshots; set snapshot_layer")
        steps = len(self.records)
        keys = self.snapshot_keys[:steps]
        values = self.snapshot_values[:steps]
        decode_steps = np.full(self.seq_len, -1, dtype=np.int64)
        for pos, step in self.decode_step_of().items():
            decode_steps[pos] = step
        return keys, values, decode_steps

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.to_json_obj()) + "\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "masked", "rows_computed", "decoded",
                             "refresh", "millis"])
            for rec in self.records:
                writer.writerow([
                    rec.step, rec.masked_count, rec.rows_computed,
                    len(rec.decoded_positions), int(rec.refresh),
                    "" if rec.millis is None else f"{rec.millis:.3f}",
                ])


@dataclass
class RunReport:
    """Flat summary of one run from ``analysis.build_report``, for JSON."""

    variant: str
    cache_ratio: float
    tokens_per_second: float | None
    total_query_rows: int
    total_logit_rows: int
    total_macs: int
    per_step_max_rows: int
    gen_len: int
    seq_len: int
    steps: int

    def to_dict(self) -> dict:
        return asdict(self)

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")
