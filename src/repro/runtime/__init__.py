"""``repro.runtime`` — sharded micro-batching inference runtime.

The paper deploys LogSynergy as an online service over ISP log streams
(collection -> buffering -> formatting -> pattern gate -> detector ->
alerting, §VI-A); this package implements every stage between the
``repro.deploy`` front door (:class:`~repro.deploy.OnlineService`) and
the model's batch-first ``score_event_windows``/``predict_proba`` path:

* :class:`ShardRouter` — stable system-id hashing over N shards; a
  system's records always land on the same shard, so each shard owns its
  windowing state and results are independent of the shard count.
* :class:`ShardQueue` — the buffering stage: a bounded ingress queue per
  shard with explicit backpressure policies (``block`` / ``reject`` /
  ``drop-oldest``) and load-shedding counters.
* :func:`normalize_record` / :class:`UnifiedLog` — the formatting stage:
  the one record normal form every shard window is built from.  Each
  record is parsed once here, by the per-record ``event_fn(system,
  message)`` hook (:func:`admission_event_fn`) — for the learned model,
  alone or as an ensemble member, the record's own system featurizer —
  and its event id rides the window to the gate (pattern = sorted id
  set) and the batched forward; nothing parses it again.
* :class:`PatternLibrary` — the §VI-A pattern gate's per-system
  verdict cache, keyed by window event-id patterns.
* :class:`MicroBatchScheduler` — accumulates windows per system lane and
  flushes them under a max-batch-size / max-latency budget (injectable
  clock).  Lanes are chunked at exactly ``max_batch`` so batch
  boundaries — and therefore model outputs — are byte-identical for any
  shard count.
* :class:`WorkerSupervisor` — timeout accounting, bounded retry with
  backoff, and a health state machine.  While a shard's model worker is
  unhealthy its traffic falls back to the :class:`PatternFallback`
  known-pattern fast path instead of dropping detections.
* :class:`InferenceRuntime` — the engine tying it together, with two
  executors: the deterministic synchronous one
  (``submit``/``pump``/``drain`` on the caller's thread, used by
  ``repro replay`` and, pumped after every submit, ``repro serve``) and
  the process one below.
* :class:`ProcessShardExecutor` / :class:`ProcessWorkerSpec` — the
  ``executor="process"`` mode: one worker process per shard, warmed by a
  one-time shared-memory :class:`WeightBroadcast` of the model arrays,
  supervised with journal-refeed crash recovery, and deduplicated on
  window id so replay output stays byte-identical to sync mode.  These
  (with ``broadcast``) are the only ``multiprocessing`` constructions
  the project permits (see the ``direct-process`` lint rule).

Every stage reports through ``repro.obs``: queue-depth gauges,
batch-size/latency histograms, shed/degraded counters and per-shard
flush spans.
"""

from .broadcast import (
    AttachedBroadcast,
    BroadcastHandle,
    WeightBroadcast,
    attach,
    pipeline_state,
    restore_pipeline,
)
from .engine import InferenceRuntime, RuntimeStats
from .fallback import PatternFallback
from .pattern_library import PatternLibrary, PatternStats
from .procexec import ProcessShardExecutor, ProcessWorkerSpec
from .queues import (
    OFFER_DROPPED,
    OFFER_FULL,
    OFFER_OK,
    OFFER_REJECTED,
    ShardQueue,
)
from .replay import render_reports, replay_records, report_sort_key
from .router import ShardRouter
from .scheduler import MicroBatchScheduler, PendingWindow
from .shard import UnifiedLog, normalize_record
from .supervisor import RespawnPolicy, WorkerSupervisor
from .worker import (
    EnsembleWorker,
    FlakyWorker,
    ModelWorker,
    SyntheticWorker,
    WorkerError,
    admission_event_fn,
    build_worker_from_spec,
    message_event,
    resolve_cost,
)

__all__ = [
    "InferenceRuntime", "RuntimeStats",
    "ShardRouter",
    "ShardQueue", "OFFER_OK", "OFFER_REJECTED", "OFFER_DROPPED", "OFFER_FULL",
    "UnifiedLog", "normalize_record",
    "MicroBatchScheduler", "PendingWindow",
    "WorkerSupervisor", "RespawnPolicy", "WorkerError",
    "ModelWorker", "SyntheticWorker", "EnsembleWorker", "FlakyWorker", "message_event",
    "admission_event_fn", "build_worker_from_spec", "resolve_cost",
    "ProcessShardExecutor", "ProcessWorkerSpec",
    "WeightBroadcast", "BroadcastHandle", "AttachedBroadcast", "attach",
    "pipeline_state", "restore_pipeline",
    "PatternFallback", "PatternLibrary", "PatternStats",
    "replay_records", "render_reports", "report_sort_key",
]
