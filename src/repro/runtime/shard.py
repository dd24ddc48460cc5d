"""Per-shard state: admission parse, windowing, pattern gate, scoring.

A shard owns every stage of its systems' traffic after routing:

1. **Admission** — each record is normalized (:func:`normalize_record`,
   the one owner of the record normal form) and parsed exactly once:
   the per-record ``event_fn(system, message)`` hook stamps its event id
   on the :class:`UnifiedLog` entry.  For the learned model that hook is
   the record's *own* system featurizer (its Drain parser, §III-B); a
   system never spans shards, so each featurizer sees only its system's
   records, in that system's order, for any shard count or executor.
2. **Windowing** — entries are assembled into the production sliding
   window per system; the event ids ride the window from here on, and
   nothing downstream parses again.
3. **Pattern gate** — each window's pattern (the sorted set of its event
   ids) is looked up in the shard's per-system
   :class:`~repro.runtime.pattern_library.PatternLibrary`.
   Known patterns resolve immediately; windows whose pattern is already
   awaiting a verdict become *followers* (they resolve silently when the
   batch lands, exactly like the duplicate-dedup of the original online
   service); novel patterns join the micro-batch scheduler.
4. **Scoring** — due batches go through the
   :class:`~repro.runtime.supervisor.WorkerSupervisor`.  A healthy worker
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
from dataclasses import dataclass
from datetime import datetime
from typing import Callable

from ..core.report import AnomalyReport
from ..obs import LATENCY_BUCKETS
from .fallback import PatternFallback
from .pattern_library import PatternLibrary
from .scheduler import MicroBatchScheduler, PendingWindow
from .supervisor import WorkerSupervisor

__all__ = ["ShardState", "BATCH_SIZE_BUCKETS", "UnifiedLog", "normalize_record"]

# Micro-batch sizes are small integers; buckets at the powers of two.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class UnifiedLog:
    """The unified record structure every window is built from (§VI-A's
    LogStash formatting stage)."""

    timestamp: datetime
    system: str
    host: str
    message: str
    event_id: int


def normalize_record(record, event_fn: Callable[[str, str], int]) -> UnifiedLog:
    """Bring one raw record into the unified structure, parsing its
    message once through ``event_fn(system, message) -> event id``."""
    message = record.message.strip()
    return UnifiedLog(
        timestamp=record.timestamp,
        system=record.system,
        host=record.host,
        message=message,
        event_id=event_fn(record.system, message),
    )


class ShardState:
    """All mutable state for one shard, owned by exactly one caller: the
    synchronous engine, or the shard's worker process (and the parent's
    fallback replica of it)."""

    def __init__(self, index: int, supervisor: WorkerSupervisor, *,
                 event_fn: Callable[[str, str], int],
                 emit: Callable[[AnomalyReport], None],
                 registry, clock: Callable[[], float],
                 window: int = 10, step: int = 5,
                 max_batch: int = 16, max_latency: float | None = None,
                 fallback_threshold: float = 0.5,
                 max_patterns: int = 100_000,
                 prefix: str = "runtime", scope: str = "",
                 spans: bool = False, gate: bool = True):
        if window <= 0 or step <= 0:
            raise ValueError("window and step must be positive")
        self.index = index
        self.supervisor = supervisor
        # Rate- and novelty-based workers (detector ensembles) must see
        # every window: with ``gate=False`` the pattern library neither
        # short-circuits repeats nor absorbs followers, and verdicts are
        # not memoized.
        self.gate = gate
        self.scheduler = MicroBatchScheduler(max_batch, max_latency)
        self.window = window
        self.step = step
        self._event_fn = event_fn
        self._emit = emit
        self._clock = clock
        self._spans = spans
        self._prefix = prefix
        self._tracer = registry.tracer
        self._max_patterns = max_patterns
        self._fallback_threshold = fallback_threshold
        self._assembly: dict[str, list] = {}
        self._window_index: dict[str, int] = {}
        self.libraries: dict[str, PatternLibrary] = {}
        self._fallbacks: dict[str, PatternFallback] = {}
        # (system, pattern) -> follower window ids awaiting the verdict.
        self._awaiting: dict[tuple[str, tuple[int, ...]], list[str]] = {}
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

    # ------------------------------------------------------------------
    def _library_of(self, system: str) -> PatternLibrary:
        library = self.libraries.get(system)
        if library is None:
            library = PatternLibrary(max_patterns=self._max_patterns)
            self.libraries[system] = library
            self._fallbacks[system] = PatternFallback(
                library, threshold=self._fallback_threshold
            )
        return library

    def ingest(self, record) -> None:
        """Parse and window one record; gate any windows it completes."""
        entry = normalize_record(record, self._event_fn)
        lane = self._assembly.setdefault(record.system, [])
        lane.append(entry)
        while len(lane) >= self.window:
            completed = lane[: self.window]
            del lane[: self.step]
            self._gate(record.system, completed)

    def _gate(self, system: str, window_entries: list) -> None:
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
        if not self.gate:
            self.scheduler.add(PendingWindow(
                system=system, index=index, window=window_entries,
                pattern=pattern, enqueued_at=self._clock(),
                gate_seconds=gate_seconds,
            ))
            return
        if key in self._awaiting:
            # Follower: the verdict is already on its way through the
            # scheduler; this window never reaches the model.
            self._awaiting[key].append(f"{system}:{index}")
            self._latency.observe(gate_seconds)
            return
        self._awaiting[key] = []
        self.scheduler.add(PendingWindow(
            system=system, index=index, window=window_entries,
            pattern=pattern, enqueued_at=self._clock(),
            gate_seconds=gate_seconds,
        ))

    # ------------------------------------------------------------------
    def flush_ready(self, now: float) -> None:
        """Score every batch due under the size / latency triggers."""
        for batch in self.scheduler.ready_batches(now):
            self.score_batch(batch)

    def drain_batches(self) -> list[tuple[str, list[PendingWindow]]]:
        """Pop all residual batches (end of stream), tagged by system so
        the engine can flush them in canonical lane order."""
        return [(batch[0].system, batch) for batch in self.scheduler.drain()]

    def pending_windows(self) -> int:
        return len(self.scheduler)

    # ------------------------------------------------------------------
    def score_batch(self, batch: list[PendingWindow]) -> None:
        """Run one batch through the supervisor and resolve its windows."""
        if not batch:
            return
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

    def _resolve_scored(self, batch: list[PendingWindow],
                        reports: list[AnomalyReport], share: float) -> None:
        self._invocations.inc(len(batch))
        for pending, report in zip(batch, reports):
            if self.gate:
                library = self._library_of(pending.system)
                library.remember(pending.pattern, report.is_anomalous)
            self._awaiting.pop((pending.system, pending.pattern), None)
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
            self._awaiting.pop((pending.system, pending.pattern), None)
            self._latency.observe(pending.gate_seconds + share)
            if report.is_anomalous:
                self._anomalies.inc()
            self._emit(dataclasses.replace(report, metadata={
                **report.metadata, "window_id": pending.window_id,
            }))
