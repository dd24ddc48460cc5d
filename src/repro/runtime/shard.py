"""Per-shard state: admission parse, windowing, pattern gate, scoring.

A shard owns every stage of its systems' traffic after routing:

1. **Admission** — each record is normalized (:func:`normalize_record`,
   the one owner of the record normal form) and parsed exactly once:
   the worker's ``event_fn(system, message)`` hook returns its event id
   and, when the parse masked the message, the masked text, and both
   are stamped on the :class:`UnifiedLog` entry.  For the learned model
   that hook is the record's *own* system featurizer (its Drain parser,
   §III-B); a system never spans shards, so each featurizer sees only
   its system's records, in that system's order, for any shard count or
   executor.  A hook that does not parse
   (:func:`~repro.runtime.worker.message_event`, the default for a
   worker without one) masks nothing and stamps ``masked=None``.
2. **Windowing** — entries are assembled into the production sliding
   window per system; the event ids and masked texts ride the window
   from here on, and nothing downstream parses or masks them again.
3. **Pattern gate** — each window's pattern (the sorted set of its event
   ids) is looked up in the shard's per-system
   :class:`~repro.runtime.pattern_library.PatternLibrary`.
   Known patterns resolve immediately; windows whose pattern is already
   awaiting a verdict become *followers* (they resolve silently when the
   batch lands, exactly like the duplicate-dedup of the original online
   service); novel patterns join the micro-batch scheduler.  Gating is a
   property of the worker, read like ``fuse_lanes``: a worker whose
   class sets ``gated = False`` (the detector ensemble) gets every
   window, and its verdicts are never memoized.
4. **Scoring** — due batches go through the
   :class:`~repro.runtime.supervisor.WorkerSupervisor`: size-triggered
   chunks one lane at a time; a latency-triggered flush (every lane's
   remainder, oldest head first) as one batch that mixes systems when
   the worker scores that in one call (``fuse_lanes``, e.g. one model
   forward), else lane by lane.  The latency trigger fires at the last
   chance whose flush still lands by the oldest window's deadline (see
   :meth:`ShardState.flush_ready`).  A healthy worker
   returns model reports: verdicts are remembered, anomalous windows are
   emitted.  A degraded worker returns ``None``: every window in the
   batch is answered by the :class:`~repro.runtime.fallback.PatternFallback`
   and emitted with ``degraded`` metadata (detections are never dropped).

Per-system pattern scoping is deliberate: it makes every verdict a
function of that system's stream alone, which is what lets ``repro
replay`` produce identical reports at any shard count.
"""

from __future__ import annotations

import dataclasses
from datetime import datetime
from typing import Callable, NamedTuple

from ..core.report import AnomalyReport
from ..obs import LATENCY_BUCKETS
from .fallback import PatternFallback
from .pattern_library import PatternLibrary
from .scheduler import MicroBatchScheduler, PendingWindow
from .supervisor import WorkerSupervisor
from .worker import message_event

__all__ = ["ShardState", "BATCH_SIZE_BUCKETS", "UnifiedLog", "normalize_record"]

# Micro-batch sizes are small integers; buckets at the powers of two.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
# Weight of the newest sample in a shard's running estimates (EWMAs) of
# what a latency flush costs and of how long its owner takes to call
# ``flush_ready`` again; together they are the latency trigger's lead.
LEAD_WEIGHT = 0.2


class UnifiedLog(NamedTuple):
    """The unified record structure every window is built from (§VI-A's
    LogStash formatting stage).

    ``event_id`` is the id the admission parse stamped.  ``masked`` is
    the message with its parameter values masked
    (:func:`~repro.parsing.masking.mask_message`) when that parse masked
    it, else ``None``; the LOF member embeds it instead of masking the
    message a second time.

    A named tuple, built once per admitted record: immutable, hashable
    and picklable like a frozen dataclass, at about half its
    construction cost.
    """

    timestamp: datetime
    system: str
    host: str
    message: str
    event_id: int
    masked: str | None = None


def normalize_record(record, event_fn: Callable[[str, str], tuple[int, str | None]]
                     ) -> UnifiedLog:
    """Bring one raw record into the unified structure, parsing its
    message once through ``event_fn(system, message) -> (event id,
    masked text or None)``."""
    message = record.message.strip()
    event_id, masked = event_fn(record.system, message)
    return UnifiedLog(record.timestamp, record.system, record.host, message,
                      event_id, masked)


class ShardState:
    """All mutable state for one shard, owned by exactly one caller: the
    synchronous engine, or the shard's worker process (and the parent's
    fallback replica of it)."""

    def __init__(self, index: int, supervisor: WorkerSupervisor, *,
                 emit: Callable[[AnomalyReport], None],
                 registry,
                 window: int = 10, step: int = 5,
                 max_batch: int = 16, max_latency: float | None = None,
                 prefix: str = "runtime", scope: str = "",
                 spans: bool = False):
        if window <= 0 or step <= 0:
            raise ValueError("window and step must be positive")
        self.index = index
        self.supervisor = supervisor
        worker = supervisor.worker
        # Rate- and novelty-based workers (detector ensembles) must see
        # every window: for an ungated worker the pattern library neither
        # short-circuits repeats nor absorbs followers, and verdicts are
        # not memoized.
        self.gate = getattr(worker, "gated", True)
        self.scheduler = MicroBatchScheduler(max_batch, max_latency)
        self._fuse_lanes = getattr(worker, "fuse_lanes", False)
        self._event_fn = getattr(worker, "event_fn", message_event)
        self.window = window
        self.step = step
        self._emit = emit
        self._clock = registry.clock
        self._spans = spans
        self._prefix = prefix
        self._tracer = registry.tracer
        self._assembly: dict[str, list] = {}
        self._window_index: dict[str, int] = {}
        self.libraries: dict[str, PatternLibrary] = {}
        self._fallbacks: dict[str, PatternFallback] = {}
        # (system, pattern) keys whose verdict is on its way through the
        # scheduler: later windows of the same key are followers.
        self._awaiting: set[tuple[str, tuple[int, ...]]] = set()
        # ``scope`` suffixes metric names per shard (``.shard<i>``) where
        # shard processes ship their registries home, so the merged
        # counters stay per shard; synchronous engines pass "" and keep
        # the flat names.
        self._windows = registry.counter(f"{prefix}.windows_seen{scope}")
        self._invocations = registry.counter(f"{prefix}.model_invocations{scope}")
        self._library_hits = registry.counter(f"{prefix}.library_hits{scope}")
        self._anomalies = registry.counter(f"{prefix}.anomalies_raised{scope}")
        self._degraded = registry.counter(f"{prefix}.degraded_windows{scope}")
        self._batches = registry.counter(f"{prefix}.batches{scope}")
        self._latency = registry.histogram(f"{prefix}.window_seconds{scope}",
                                           boundaries=LATENCY_BUCKETS)
        self._batch_size = registry.histogram(f"{prefix}.batch_size{scope}",
                                              boundaries=BATCH_SIZE_BUCKETS)
        self._batch_seconds = registry.histogram(f"{prefix}.batch_seconds{scope}")
        # The latency trigger's lead (only under a budget): running
        # estimates of a latency flush's cost and of the gap from the end
        # of one flush_ready call to the next, None until first measured.
        self._flush_cost: float | None = None
        self._gap: float | None = None
        self._done_at: float | None = None
        self._lead_gauge = (
            None if max_latency is None
            else registry.gauge(f"{prefix}.flush_lead_seconds{scope}"))

    # ------------------------------------------------------------------
    def _library_of(self, system: str) -> PatternLibrary:
        library = self.libraries.get(system)
        if library is None:
            library = PatternLibrary()
            self.libraries[system] = library
            self._fallbacks[system] = PatternFallback(library)
        return library

    def ingest(self, record, admitted_at: float | None = None) -> None:
        """Parse and window one record; gate any windows it completes.

        ``admitted_at`` is when the record entered the runtime, on this
        shard's clock; the latency budget of the windows it completes
        counts from there (default: now).
        """
        entry = normalize_record(record, self._event_fn)
        lane = self._assembly.setdefault(record.system, [])
        lane.append(entry)
        while len(lane) >= self.window:
            completed = lane[: self.window]
            del lane[: self.step]
            self._gate(record.system, completed, admitted_at)

    def _gate(self, system: str, window_entries: list,
              admitted_at: float | None) -> None:
        start = self._clock()
        self._windows.inc()
        index = self._window_index.get(system, 0)
        self._window_index[system] = index + 1
        pattern = tuple(sorted({entry.event_id for entry in window_entries}))
        library = self._library_of(system)
        cached = library.lookup(pattern) if self.gate else None
        gate_seconds = self._clock() - start
        if cached is not None:
            self._library_hits.inc()
            self._latency.observe(gate_seconds)
            return
        key = (system, pattern)
        enqueued_at = self._clock() if admitted_at is None else admitted_at
        if not self.gate:
            self.scheduler.add(PendingWindow(
                system=system, index=index, window=window_entries,
                pattern=pattern, enqueued_at=enqueued_at,
                gate_seconds=gate_seconds,
            ))
            return
        if key in self._awaiting:
            # Follower: the verdict is already on its way through the
            # scheduler; this window never reaches the model.
            self._latency.observe(gate_seconds)
            return
        self._awaiting.add(key)
        self.scheduler.add(PendingWindow(
            system=system, index=index, window=window_entries,
            pattern=pattern, enqueued_at=enqueued_at,
            gate_seconds=gate_seconds,
        ))

    # ------------------------------------------------------------------
    def flush_ready(self, now: float, *, timer: bool = False) -> None:
        """Score every batch due under the size / latency triggers.

        Size-triggered chunks score one lane at a time; a latency flush
        (every lane's remainder, oldest head first) scores as one batch
        for a worker that fuses lanes.

        The latency trigger fires at the last chance whose flush still
        lands by the oldest head's deadline: once ``now + lead`` reaches
        it.  ``lead`` is the expected wait until the owner calls again
        plus the expected cost of a latency flush, clamped to
        ``[0, max_latency]``, and 0 until a latency flush has been
        measured.  An owner that sleeps on its own timer until
        :meth:`wake_at` (a shard process) passes ``timer=True`` and waits
        0; any other owner gets control only when its next record is
        routed here, so its wait is the measured gap between calls.
        """
        budget = self.scheduler.max_latency
        horizon = now
        if budget is not None:
            if timer:
                wait = 0.0
            else:
                if self._done_at is not None:
                    self._gap = _ewma(self._gap,
                                      min(now - self._done_at, budget))
                wait = self._gap or 0.0
            lead = self._lead(wait)
            self._lead_gauge.set(lead)
            horizon = now + lead
        latency = budget is not None and self.scheduler.expired(horizon)
        batches = self.scheduler.ready_batches(horizon)
        if latency and self._fuse_lanes and len(batches) > 1:
            batches = [[pending for batch in batches for pending in batch]]
        elapsed = 0.0
        for batch in batches:
            elapsed += self.score_batch(batch)
        if budget is not None:
            if latency:
                self._flush_cost = _ewma(self._flush_cost, elapsed)
            self._done_at = now + elapsed

    def _lead(self, wait: float) -> float:
        if self._flush_cost is None:
            return 0.0
        return min(wait + self._flush_cost, self.scheduler.max_latency)

    def wake_at(self) -> float | None:
        """When an owner on its own timer must next call
        ``flush_ready(now, timer=True)``: the oldest head's deadline less
        the expected cost of the flush (None when nothing waits or there
        is no budget)."""
        deadline = self.scheduler.oldest_deadline()
        if deadline is None:
            return None
        return deadline - self._lead(0.0)

    def drain_batches(self) -> list[tuple[str, list[PendingWindow]]]:
        """Pop all residual batches (end of stream), tagged by system so
        the engine can flush them in canonical lane order."""
        return [(batch[0].system, batch) for batch in self.scheduler.drain()]

    def pending_windows(self) -> int:
        return len(self.scheduler)

    # ------------------------------------------------------------------
    def score_batch(self, batch: list[PendingWindow]) -> float:
        """Run one batch through the supervisor and resolve its windows;
        returns how long the supervisor took, on the shard's clock."""
        if not batch:
            return 0.0
        span = (self._tracer.span(f"{self._prefix}.flush", shard=self.index,
                                  system=batch[0].system, batch=len(batch))
                if self._spans else None)
        start = self._clock()
        if span is not None:
            with span:
                reports = self.supervisor.score_batch(batch)
        else:
            reports = self.supervisor.score_batch(batch)
        elapsed = self._clock() - start
        self._batches.inc()
        self._batch_size.observe(len(batch))
        self._batch_seconds.observe(elapsed)
        share = elapsed / len(batch)
        if reports is None:
            self._resolve_degraded(batch, share)
        else:
            self._resolve_scored(batch, reports, share)
        return elapsed

    def _resolve_scored(self, batch: list[PendingWindow],
                        reports: list[AnomalyReport], share: float) -> None:
        self._invocations.inc(len(batch))
        for pending, report in zip(batch, reports):
            if self.gate:
                library = self._library_of(pending.system)
                library.remember(pending.pattern, report.is_anomalous)
            self._awaiting.discard((pending.system, pending.pattern))
            self._latency.observe(pending.gate_seconds + share)
            if report.is_anomalous:
                self._anomalies.inc()
                self._emit(dataclasses.replace(report, metadata={
                    **report.metadata, "window_id": pending.window_id,
                }))

    def _fallback_of(self, system: str) -> PatternFallback:
        # With the gate off nothing has touched _library_of for this
        # system yet; creating the (empty) library also creates the
        # fallback that answers degraded batches.
        self._library_of(system)
        return self._fallbacks[system]

    def _resolve_degraded(self, batch: list[PendingWindow], share: float) -> None:
        for pending in batch:
            fallback = self._fallback_of(pending.system)
            report = fallback.score(pending)
            self._degraded.inc()
            # Degraded verdicts are not remembered: the model re-judges
            # these patterns after recovery.
            self._awaiting.discard((pending.system, pending.pattern))
            self._latency.observe(pending.gate_seconds + share)
            if report.is_anomalous:
                self._anomalies.inc()
            self._emit(dataclasses.replace(report, metadata={
                **report.metadata, "window_id": pending.window_id,
            }))


def _ewma(estimate: float | None, sample: float) -> float:
    if estimate is None:
        return sample
    return estimate + LEAD_WEIGHT * (sample - estimate)
