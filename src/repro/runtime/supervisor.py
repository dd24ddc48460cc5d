"""Worker supervision: retries, timeout accounting, health, recovery.

The supervisor wraps one shard's inference worker and decides, per
batch, whether the model path is trustworthy:

* **Bounded retry with backoff** — a failing ``score_batch`` is retried
  up to ``max_retries`` times with exponential backoff (the sleep is
  injectable; the synchronous engine injects a no-op so determinism and
  tests never wait on wall time).
* **Timeout accounting** — execution is cooperative, so a slow batch
  cannot be preempted; instead its duration (from the injected clock) is
  compared against ``timeout`` after the fact.  The result is still
  used — detections are never discarded — but the overrun counts toward
  the health streak, so a persistently slow worker degrades.
* **Health state machine** — ``unhealthy_after`` consecutive bad batches
  (exhausted retries or overruns) mark the worker unhealthy.  While
  unhealthy, ``score_batch`` returns ``None`` immediately and the owning
  shard serves traffic from the pattern-library fast path.  After
  ``cooldown`` seconds the next batch becomes a recovery probe: one
  attempt, no retries; success restores the worker, failure doubles the
  cooldown (capped at 16x).

The state machine itself lives in :class:`~repro.runtime.health.HealthMonitor`
so the LLM circuit breaker (:mod:`repro.llm.middleware`) degrades with
identical open/probe/close semantics; this module adds the retry loop,
timeout accounting and ``repro.obs`` counters around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.report import AnomalyReport
from ..obs import get_registry
from ..testing.faultpoints import fault_point
from .health import HealthMonitor
from .scheduler import PendingWindow
from .worker import InferenceWorker

__all__ = ["RespawnPolicy", "WorkerSupervisor"]


@dataclass(frozen=True)
class RespawnPolicy:
    """How hard the process executor fights to keep a shard alive.

    ``max_spawn_attempts`` bounds consecutive failed process launches
    (spawn faults, fork errors) before the shard is abandoned to the
    parent-side pattern-library fallback; ``max_restarts`` bounds how
    many times one shard may be respawned over the run, so a
    crash-looping worker cannot refeed its journal forever.
    """

    max_spawn_attempts: int = 3
    max_restarts: int = 8

    def __post_init__(self) -> None:
        if self.max_spawn_attempts < 1:
            raise ValueError(
                f"max_spawn_attempts must be >= 1, got {self.max_spawn_attempts}")
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}")


def _no_sleep(_seconds: float) -> None:
    return None


class WorkerSupervisor:
    """Health-aware wrapper around one shard's inference worker."""

    def __init__(self, worker: InferenceWorker, *,
                 clock: Callable[[], float] | None = None,
                 max_retries: int = 2, backoff_base: float = 0.05,
                 backoff_cap: float = 1.0, timeout: float | None = None,
                 unhealthy_after: int = 3, cooldown: float = 1.0,
                 sleep: Callable[[float], None] | None = None,
                 registry=None, prefix: str = "runtime", scope: str = ""):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        registry = registry if registry is not None else get_registry()
        self.worker = worker
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self.monitor = HealthMonitor(unhealthy_after=unhealthy_after,
                                     cooldown=cooldown)
        self._clock = clock or registry.clock
        self._sleep = sleep or _no_sleep
        self.last_error: BaseException | None = None
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

    def _record_bad(self, now: float) -> None:
        if self.monitor.record_bad(now):
            self._transitions.inc()

    def _attempt(self, batch: list[PendingWindow]) -> tuple[list[AnomalyReport], float]:
        start = self._clock()
        # Between the two clock reads on purpose: a ``timeout`` fault here
        # skews the injected clock so this attempt overruns its budget.
        fault_point("runtime.supervisor.attempt")
        reports = self.worker.score_batch(batch)
        return reports, self._clock() - start

    # ------------------------------------------------------------------
    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport] | None:
        """Score through the worker; ``None`` means *degraded* — the
        caller must answer the batch from the pattern fallback."""
        now = self._clock()
        if not self.monitor.healthy:
            if not self.monitor.ready_to_probe(now):
                return None
            return self._probe(batch)

        attempts = 1 + self.max_retries
        for attempt in range(attempts):
            try:
                reports, elapsed = self._attempt(batch)
            except Exception as exc:  # lint: disable=blanket-except
                # The supervisor is the containment boundary: any worker
                # failure must degrade gracefully, never crash the shard.
                self._failures.inc()
                self.last_error = exc
                if attempt + 1 < attempts:
                    self._retries.inc()
                    self._sleep(min(self.backoff_base * (2 ** attempt),
                                    self.backoff_cap))
                continue
            if self.timeout is not None and elapsed > self.timeout:
                # Cooperative timeout: keep the (late) result, count the
                # overrun toward the health streak.
                self._timeouts.inc()
                self._record_bad(self._clock())
            else:
                self.monitor.record_good()
            return reports

        self._record_bad(self._clock())
        return None

    def _probe(self, batch: list[PendingWindow]) -> list[AnomalyReport] | None:
        """Single-attempt recovery probe after the cooldown elapsed."""
        try:
            reports, elapsed = self._attempt(batch)
        except Exception as exc:  # lint: disable=blanket-except
            # Probe failed: stay degraded, back the cooldown off.
            self._failures.inc()
            self.last_error = exc
            self.monitor.probe_failed(self._clock())
            return None
        if self.timeout is not None and elapsed > self.timeout:
            self._timeouts.inc()
            self.monitor.probe_failed(self._clock())
            return reports
        self.monitor.probe_succeeded()
        self.last_error = None
        self._recoveries.inc()
        return reports
