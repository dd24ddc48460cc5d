"""``repro.runtime`` — sharded micro-batching inference runtime.

The paper deploys LogSynergy as an online service over ISP log streams
(collection -> buffering -> formatting -> pattern gate -> detector ->
alerting, §VI-A); this package implements every stage between the
``repro.deploy`` front door (:class:`~repro.deploy.OnlineService`) and
the model's batch-first ``score_event_windows``/``predict_proba`` path:

* :class:`ShardRouter` — sticky round-robin assignment of systems to N
  shards, in first-seen order; a system's records always land on the
  same shard, so each shard owns its windowing state and results are
  independent of the shard count.
* :func:`normalize_record` / :class:`UnifiedLog` — the formatting stage:
  the one record normal form every shard window is built from.  Each
  record is parsed once here, by the worker's ``event_fn(system,
  message)`` hook — for the learned model, alone or as an ensemble
  member, the record's own system featurizer — and its event id rides
  the window to the gate (pattern = sorted id set) and the batched
  forward; nothing parses it again.  The masked
  text that parse produced rides along as ``UnifiedLog.masked`` for the
  LOF member, so nothing masks it again either.
* :class:`PatternLibrary` — the §VI-A pattern gate's per-system
  verdict cache, keyed by window event-id patterns.
* :class:`MicroBatchScheduler` — accumulates windows per system lane and
  flushes them under a max-batch-size / max-latency budget (injectable
  clock).  The size trigger chunks lanes at exactly ``max_batch`` so
  replay batch boundaries — and therefore model outputs — are
  byte-identical for any shard count; the latency budget is one deadline
  per shard, at which every lane flushes (as one mixed batch for a
  worker that scores it in one call).
* :class:`WorkerSupervisor` — the worker fault points, timeout
  accounting, bounded immediate retries, and a health state machine.
  While a shard's model worker is
  unhealthy its traffic falls back to the :class:`PatternFallback`
  known-pattern fast path instead of dropping detections.
* :class:`InferenceRuntime` — the engine tying it together, built from
  one worker.  A worker says how its records are admitted, whether it
  is gated, whether it fuses lanes, and which pipeline a swap loads.
  Two executors: the deterministic synchronous one (``submit``/``drain`` on
  the caller's thread, used by ``repro replay`` and ``repro serve``;
  ``submit`` ingests each record straight into its shard, with no
  buffer in between) and the process one below.
* :class:`ProcessShardExecutor` — the ``executor="process"`` mode: one
  worker process per shard, each loading its own copy of the runtime's
  worker from one pickled snapshot, supervised with journal-refeed
  crash recovery, and deduplicated on window id so replay output stays
  byte-identical to sync mode.  It holds the only ``multiprocessing``
  constructions the project permits (see the ``direct-process`` lint
  rule).

Every stage reports through ``repro.obs``: batch-size/latency
histograms, degraded-window counters and per-shard flush spans.
"""

from .engine import InferenceRuntime, RuntimeStats
from .fallback import PatternFallback
from .pattern_library import PatternLibrary, PatternStats
from .procexec import ProcessShardExecutor
from .replay import render_reports, replay_records, report_sort_key
from .router import ShardRouter
from .scheduler import MicroBatchScheduler, PendingWindow
from .shard import UnifiedLog, normalize_record
from .supervisor import WorkerSupervisor
from .worker import (
    EnsembleWorker,
    FlakyWorker,
    ModelWorker,
    SyntheticWorker,
    WorkerError,
    message_event,
)

__all__ = [
    "InferenceRuntime", "RuntimeStats",
    "ShardRouter",
    "UnifiedLog", "normalize_record",
    "MicroBatchScheduler", "PendingWindow",
    "WorkerSupervisor", "WorkerError",
    "ModelWorker", "SyntheticWorker", "EnsembleWorker", "FlakyWorker", "message_event",
    "ProcessShardExecutor",
    "PatternFallback", "PatternLibrary", "PatternStats",
    "replay_records", "render_reports", "report_sort_key",
]
