"""Worker supervision: retries, timeout accounting, health, recovery.

The supervisor wraps one shard's inference worker and decides, per
batch, whether the model path is trustworthy:

* **Bounded retry** — a failing ``score_batch`` is retried at once, up
  to ``max_retries`` times.  Workers run in-process, so there is no
  remote endpoint for a backoff to spare.
* **Timeout accounting** — execution is cooperative, so a slow batch
  cannot be preempted; instead its duration (from the injected clock) is
  compared against ``timeout`` after the fact.  The result is still
  used — detections are never discarded — but the overrun counts toward
  the health streak, so a persistently slow worker degrades.
* **Health state machine** — ``unhealthy_after`` consecutive bad batches
  (exhausted retries, dropped results or overruns) mark the worker
  unhealthy.  While unhealthy, ``score_batch`` returns ``None``
  immediately and the owning shard serves traffic from the
  pattern-library fast path.  After ``cooldown`` seconds the next batch
  becomes a recovery probe: one attempt, no retries; success restores
  the worker, failure doubles the cooldown (capped at 16x).

Every attempt passes the two worker fault points, so any worker takes
injected faults without hooks of its own: ``runtime.worker.score``
before the worker runs (a raise, or a ``timeout`` that skews the
injected clock so the attempt overruns), and ``runtime.worker.result``
on what it returned (a drop swallows the result: the batch degrades,
with no retry).

The state machine itself lives in :class:`~repro.runtime.health.HealthMonitor`
so the LLM provider supervisor (:mod:`repro.llm.middleware`) degrades
with identical open/probe/close semantics; this module adds the retry
loop, timeout accounting and ``repro.obs`` counters around it.
"""

from __future__ import annotations

from typing import Callable

from ..core.report import AnomalyReport
from ..obs import get_registry
from ..testing.faultpoints import DROPPED, fault_point
from .health import HealthMonitor
from .scheduler import PendingWindow
from .worker import InferenceWorker

__all__ = ["WorkerSupervisor"]


class WorkerSupervisor:
    """Health-aware wrapper around one shard's inference worker."""

    def __init__(self, worker: InferenceWorker, *,
                 clock: Callable[[], float] | None = None,
                 max_retries: int = 2, timeout: float | None = None,
                 unhealthy_after: int = 3, cooldown: float = 1.0,
                 registry=None, prefix: str = "runtime", scope: str = ""):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        registry = registry if registry is not None else get_registry()
        self.worker = worker
        self.max_retries = max_retries
        self.timeout = timeout
        self.monitor = HealthMonitor(unhealthy_after=unhealthy_after,
                                     cooldown=cooldown)
        self._clock = clock or registry.clock
        # ``scope`` isolates per-shard counters under the process
        # executor (see ShardState); flat names when empty.
        self._retries = registry.counter(f"{prefix}.worker_retries{scope}")
        self._failures = registry.counter(f"{prefix}.worker_failures{scope}")
        self._timeouts = registry.counter(f"{prefix}.worker_timeouts{scope}")
        self._transitions = registry.counter(f"{prefix}.unhealthy_transitions{scope}")
        self._recoveries = registry.counter(f"{prefix}.worker_recoveries{scope}")

    @property
    def healthy(self) -> bool:
        return self.monitor.healthy

    @property
    def unhealthy_after(self) -> int:
        return self.monitor.unhealthy_after

    @property
    def cooldown(self) -> float:
        return self.monitor.cooldown

    # ------------------------------------------------------------------
    def force_unhealthy(self, cooldown: float | None = None) -> None:
        """Fault injection / operator override: degrade immediately."""
        if self.monitor.force_unhealthy(self._clock(), cooldown):
            self._transitions.inc()

    def _attempt(self, batch: list[PendingWindow]) -> tuple[list[AnomalyReport], float]:
        start = self._clock()
        # Between the two clock reads on purpose: a ``timeout`` fault here
        # skews the injected clock so this attempt overruns its budget.
        fault_point("runtime.worker.score")
        reports = fault_point("runtime.worker.result",
                              self.worker.score_batch(batch))
        return reports, self._clock() - start

    # ------------------------------------------------------------------
    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport] | None:
        """Score through the worker; ``None`` means *degraded* — the
        caller must answer the batch from the pattern fallback."""
        monitor = self.monitor
        probing = not monitor.healthy
        if probing and not monitor.ready_to_probe(self._clock()):
            return None
        # A recovery probe is a single attempt.
        attempts = 1 if probing else 1 + self.max_retries
        # Stays DROPPED when every attempt raised: an exhausted budget
        # and a dropped result both degrade the batch.
        reports, elapsed = DROPPED, 0.0
        for attempt in range(attempts):
            try:
                reports, elapsed = self._attempt(batch)
            except Exception:  # lint: disable=blanket-except
                # The supervisor is the containment boundary: any worker
                # failure must degrade gracefully, never crash the shard.
                self._failures.inc()
                if attempt + 1 < attempts:
                    self._retries.inc()
            else:
                # A dropped result is not an exception: it is not retried.
                break
        if reports is DROPPED:
            good = False
        elif self.timeout is not None and elapsed > self.timeout:
            # Cooperative timeout: keep the (late) result, count the
            # overrun toward the health streak.
            self._timeouts.inc()
            good = False
        else:
            good = True
        if probing:
            if good:
                monitor.probe_succeeded()
                self._recoveries.inc()
            else:
                # Stay degraded, back the cooldown off.
                monitor.probe_failed(self._clock())
        elif good:
            monitor.record_good()
        elif monitor.record_bad(self._clock()):
            self._transitions.inc()
        return None if reports is DROPPED else reports
