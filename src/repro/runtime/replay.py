"""Deterministic replay: re-run a captured stream, shard-count invariant.

``repro replay`` exists to make the sharding claim falsifiable: the same
records through ``--shards 1`` and ``--shards 4`` must render to the same
bytes.  The pieces that guarantee it are the synchronous engine's
submit-order admission, exact-``max_batch`` lane chunking, per-system pattern
libraries, and — here — disabling the latency trigger (wall-clock flush
times are the one thing that cannot be reproduced) plus a canonical
report ordering by window id.
"""

from __future__ import annotations

import json

from ..core.report import AnomalyReport
from .engine import InferenceRuntime

__all__ = ["replay_records", "render_reports", "report_sort_key"]


def report_sort_key(report: AnomalyReport) -> tuple[str, int]:
    """Canonical report order: (system, per-system window ordinal)."""
    window_id = str(report.metadata.get("window_id", ""))
    system, _, ordinal = window_id.rpartition(":")
    return (system or report.system, int(ordinal) if ordinal.isdigit() else -1)


def render_reports(reports: list[AnomalyReport]) -> str:
    """Render reports as canonical JSONL (sorted, fixed key order).

    Every field is a pure function of window content, so two replays
    that detected the same anomalies produce identical bytes.
    """
    lines = []
    for report in sorted(reports, key=report_sort_key):
        lines.append(json.dumps({
            "window_id": report.metadata.get("window_id"),
            "system": report.system,
            "score": report.score,
            "threshold": report.threshold,
            "anomalous": report.is_anomalous,
            "degraded": bool(report.metadata.get("degraded", False)),
        }, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def replay_records(model, records: list, *, shards: int = 1,
                   max_batch: int = 16, window: int = 10, step: int = 5,
                   registry=None,
                   ) -> tuple[list[AnomalyReport], InferenceRuntime]:
    """Replay records through a synchronous sharded runtime.

    Returns the emitted reports in canonical order plus the runtime, so
    callers can inspect stats and metrics after the fact.  The latency
    trigger is disabled (``max_latency=None``): batches flush only on
    size and at end-of-stream, the deterministic triggers.
    """
    runtime = InferenceRuntime.from_model(
        model, shards=shards, window=window, step=step,
        max_batch=max_batch, max_latency=None, registry=registry,
    )
    for record in records:
        runtime.submit(record)
    reports = runtime.drain()
    reports.sort(key=report_sort_key)
    return reports, runtime
