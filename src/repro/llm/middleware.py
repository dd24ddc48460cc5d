"""Provider supervision: bounded retries, then a circuit breaker.

The LEI stage puts an LLM on the hot path of onboarding every new
system; at production traffic the provider boundary needs the same
controls any fallible dependency gets.  :class:`ProviderSupervisor` is
itself an :class:`~repro.llm.providers.LLMProvider` wrapping an inner
one, so every call site stays provider-agnostic.  It has the shape of
the runtime's :class:`~repro.runtime.supervisor.WorkerSupervisor`:

1. **Bounded retry** — each prompt gets up to ``1 + max_retries``
   upstream attempts, back to back; every provider here runs
   in-process, so there is no remote endpoint for a backoff to spare.
2. **Circuit breaker** — a prompt whose attempts all failed feeds the
   shared :class:`~repro.runtime.health.HealthMonitor`: after
   ``unhealthy_after`` consecutive such prompts it opens and answers by
   :func:`pattern_fallback`, then probes per the open/probe/close
   state machine.

Retries come first, so the breaker counts only failures the retry
budget could not absorb.  There is no rate limit: LEI asks the LLM once
per new event template, not once per log line, so upstream traffic
stays far below any quota.  Memoization is not done here: it is
:class:`~repro.llm.cache.CachedLLM`, which ``--llm cached:path=...``
places *under* the supervisor, so degraded fallback answers never reach
disk.  All activity is mirrored into ``repro.obs`` under
``llm.provider.*``.

A supervisor is owned by one process (one shard) and is never shared
across threads, so it takes no lock; it pickles plainly, and each shard
process gets its own copy.  Its ``clock`` is injectable, so it is
deterministic under test and fuzz harnesses — the
``flaky-provider-within-retry-budget`` invariant drives a flaky upstream
through it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..obs import get_registry
from .prompts import extract_log_from_prompt
from .providers import LLMProvider, ProviderError
from .simulated import fallback_rewrite

__all__ = ["ProviderSupervisor", "pattern_fallback"]


def pattern_fallback(prompt: str) -> str:
    """Degraded completion: the normalized rewrite the pattern-library
    path would embed (what "LogSynergy w/o LEI" serves), derived from
    the log line inside the prompt — no model required."""
    return fallback_rewrite(extract_log_from_prompt(prompt))


class ProviderSupervisor(LLMProvider):
    """Retries, then open/probe/close degradation to the pattern fallback.

    The breaker reuses the :class:`~repro.runtime.health.HealthMonitor`
    state machine of the runtime's worker supervisor, so an LLM outage
    degrades exactly the way an unhealthy inference worker does:
    ``unhealthy_after`` consecutive budget-exhausted prompts open it;
    while open, every prompt is answered by :func:`pattern_fallback`
    immediately (``llm.provider.degraded``); after ``cooldown`` seconds
    the next prompt is a half-open probe, with the full retry budget,
    whose failure doubles the cooldown (capped 16x) and whose success
    closes the breaker.

    Only :class:`~repro.llm.providers.ProviderError` is retried or trips
    the breaker — anything else is a programming error and propagates.
    ``breaker=False`` keeps the retries alone: a prompt whose budget is
    exhausted raises its last error.
    """

    def __init__(self, inner: LLMProvider, *, max_retries: int = 2,
                 breaker: bool = True, unhealthy_after: int = 3,
                 cooldown: float = 30.0,
                 clock: Callable[[], float] | None = None, registry=None):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        # Local import: repro.runtime's package init reaches repro.core,
        # which imports repro.llm — a module-level import here would cycle.
        from ..runtime.health import HealthMonitor

        registry = registry if registry is not None else get_registry()
        self.inner = inner
        self.max_retries = max_retries
        self.monitor = (HealthMonitor(unhealthy_after=unhealthy_after,
                                      cooldown=cooldown)
                        if breaker else None)
        self._clock = clock or registry.clock
        self._retries = registry.counter("llm.provider.retries")
        self._opened = registry.counter("llm.provider.breaker.opened")
        self._probes = registry.counter("llm.provider.breaker.probes")
        self._closed = registry.counter("llm.provider.breaker.closed")
        self._degraded = registry.counter("llm.provider.degraded")

    def _attempts(self, prompt: str) -> str:
        """Up to ``1 + max_retries`` upstream attempts; the last
        attempt's :class:`ProviderError` escapes."""
        for _ in range(self.max_retries):
            try:
                return self.inner.complete(prompt)
            except ProviderError:
                self._retries.inc()
        return self.inner.complete(prompt)

    def complete(self, prompt: str) -> str:
        monitor = self.monitor
        if monitor is None:
            return self._attempts(prompt)
        probing = not monitor.healthy
        if probing:
            if not monitor.ready_to_probe(self._clock()):
                self._degraded.inc()
                return pattern_fallback(prompt)
            self._probes.inc()
        try:
            value = self._attempts(prompt)
        except ProviderError:
            if probing:
                monitor.probe_failed(self._clock())
            elif monitor.record_bad(self._clock()):
                self._opened.inc()
            self._degraded.inc()
            return pattern_fallback(prompt)
        if probing:
            monitor.probe_succeeded()
            self._closed.inc()
        else:
            monitor.record_good()
        return value

    def complete_batch(self, prompts: Sequence[str]) -> list[str]:
        # Per-prompt on purpose: one bad prompt must not poison a whole
        # batch, and the health streak advances per prompt.
        return [self.complete(prompt) for prompt in prompts]
