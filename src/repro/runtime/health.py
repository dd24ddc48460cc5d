"""Reusable unhealthy/cooldown health state machine.

Extracted from :class:`~repro.runtime.supervisor.WorkerSupervisor` so
other degradation points can share the exact same semantics — most
notably the LLM provider supervisor in :mod:`repro.llm.middleware`, which
must open, probe and close the way a supervised worker does:

* **closed/healthy** — consecutive failures accumulate in a streak;
  ``unhealthy_after`` of them trip the breaker.
* **open/unhealthy** — callers get an immediate "degraded" answer until
  ``cooldown`` seconds (by the injected clock) have elapsed.
* **half-open probe** — the first call after the cooldown is a probe:
  success closes the breaker, failure doubles the cooldown (capped at
  ``BACKOFF_CAP``, 16x).

The monitor is pure bookkeeping: it never reads a clock on its own
(every transition takes ``now`` from the caller) and never counts
metrics — hosts own their counters so supervisor and breaker keep their
distinct ``repro.obs`` vocabularies.  Kept dependency-free (stdlib only)
for the same reason :mod:`repro.testing.faultpoints` is: it is imported
from low-level modules on both the runtime and LLM sides.
"""

from __future__ import annotations

__all__ = ["HealthMonitor"]

# Most a failed probe may stretch the cooldown: 16x the base.
BACKOFF_CAP = 16


class HealthMonitor:
    """Failure-streak / cooldown / probe state shared by degradation points."""

    def __init__(self, *, unhealthy_after: int = 3, cooldown: float = 1.0):
        if unhealthy_after <= 0:
            raise ValueError(f"unhealthy_after must be positive, got {unhealthy_after}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be non-negative, got {cooldown}")
        self.unhealthy_after = unhealthy_after
        self.cooldown = cooldown
        self.healthy = True
        self.bad_streak = 0
        self.probe_failures = 0
        self.retry_at = 0.0

    # -- closed-state transitions ---------------------------------------
    def record_good(self) -> None:
        """A successful unit of work while healthy: reset the streak."""
        self.bad_streak = 0

    def record_bad(self, now: float) -> bool:
        """A failed/overrun unit of work while healthy.

        Returns ``True`` when this failure trips the unhealthy
        transition (the caller counts the transition exactly once).
        """
        self.bad_streak += 1
        if self.healthy and self.bad_streak >= self.unhealthy_after:
            self._trip(now, self.cooldown)
            return True
        return False

    def force_unhealthy(self, now: float, cooldown: float | None = None) -> bool:
        """Operator override / fault injection: degrade immediately.

        Returns ``True`` when this call performed the healthy->unhealthy
        transition (``False`` if already unhealthy — the cooldown is
        still re-armed either way).
        """
        transitioned = self.healthy
        self._trip(now, self.cooldown if cooldown is None else cooldown)
        return transitioned

    def _trip(self, now: float, cooldown: float) -> None:
        self.healthy = False
        self.probe_failures = 0
        self.retry_at = now + cooldown

    # -- open-state / probe transitions ---------------------------------
    def ready_to_probe(self, now: float) -> bool:
        """Whether the cooldown elapsed and the next call may probe."""
        return not self.healthy and now >= self.retry_at

    def probe_succeeded(self) -> None:
        """Half-open probe came back clean: close (restore health)."""
        self.healthy = True
        self.bad_streak = 0
        self.probe_failures = 0

    def probe_failed(self, now: float) -> None:
        """Half-open probe failed: stay open, back the cooldown off."""
        self.probe_failures += 1
        backoff = self.cooldown * min(2 ** self.probe_failures, BACKOFF_CAP)
        self.retry_at = now + backoff
