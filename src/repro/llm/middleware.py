"""Composable traffic-control middleware over any :class:`LLMProvider`.

The LEI stage puts an LLM on the hot path of onboarding every new
system; at production traffic the provider boundary needs the same
controls any remote dependency gets.  Each middleware here is itself an
:class:`~repro.llm.providers.LLMProvider` wrapping an inner one, so the
stack composes freely and every call site stays provider-agnostic.

**Ordering contract** (outermost first — :func:`build_provider_stack`
enforces it):

1. :class:`CircuitBreakerMiddleware` — after ``unhealthy_after``
   consecutive *budget-exhausted* failures, degrade to
   :func:`pattern_fallback` and probe per the shared
   :class:`~repro.runtime.health.HealthMonitor` state machine.
2. :class:`RetryMiddleware` — jittered exponential backoff.

Breaker above retry so it only counts failures the retry budget could
not absorb.  There is no rate limit: LEI asks the LLM once per new
event template, not once per log line, so upstream traffic stays far
below any quota.  Memoization is not a tier here: it is
:class:`~repro.llm.cache.CachedLLM`, which ``--llm cached:path=...``
places *under* the breaker, so degraded fallback answers never reach
disk.  All activity is mirrored into ``repro.obs`` under
``llm.provider.*``.

A stack is owned by one process (one shard) and is never shared across
threads, so no tier takes a lock; a stack pickles plainly, and each
shard process gets its own copy.

The breaker's ``clock`` and the retry tier's ``sleep``/``seed`` are
injectable, so the whole stack is deterministic under test and fuzz
harnesses — the ``flaky-provider-within-retry-budget`` invariant drives
a flaky upstream through this exact composition.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..obs import get_registry
from .prompts import extract_log_from_prompt
from .providers import LLMProvider, ProviderError
from .simulated import fallback_rewrite

__all__ = [
    "ProviderMiddleware", "CircuitBreakerMiddleware", "RetryMiddleware",
    "pattern_fallback", "build_provider_stack",
]

# Retry backoff: ``min(BACKOFF_BASE * 2**n, BACKOFF_CAP)`` seconds before
# retry n+1, stretched by up to ``JITTER`` of itself.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0
JITTER = 0.5


def _no_sleep(_seconds: float) -> None:
    return None


def pattern_fallback(prompt: str) -> str:
    """Degraded completion: the normalized rewrite the pattern-library
    path would embed (what "LogSynergy w/o LEI" serves), derived from
    the log line inside the prompt — no model required."""
    return fallback_rewrite(extract_log_from_prompt(prompt))


class ProviderMiddleware(LLMProvider):
    """Base pass-through wrapper; subclasses override one concern."""

    def __init__(self, inner: LLMProvider):
        self.inner = inner

    def complete(self, prompt: str) -> str:
        return self.inner.complete(prompt)

    def complete_batch(self, prompts: Sequence[str]) -> list[str]:
        return self.inner.complete_batch(prompts)


class CircuitBreakerMiddleware(ProviderMiddleware):
    """Open/probe/close degradation to the pattern-library fallback.

    Reuses the :class:`~repro.runtime.health.HealthMonitor` state
    machine extracted from the runtime's :class:`WorkerSupervisor`, so
    an LLM outage degrades exactly the way an unhealthy inference worker
    does: ``unhealthy_after`` consecutive failures open the breaker;
    while open, every prompt is answered by :func:`pattern_fallback`
    immediately (``llm.provider.degraded``); after ``cooldown`` seconds
    the next prompt is a half-open probe whose failure doubles the
    cooldown (capped 16x) and whose success closes the breaker.

    Only :class:`~repro.llm.providers.ProviderError` trips the breaker —
    anything else is a programming error and propagates.
    """

    def __init__(self, inner: LLMProvider, *,
                 unhealthy_after: int = 3, cooldown: float = 30.0,
                 clock: Callable[[], float] | None = None, registry=None):
        super().__init__(inner)
        # Local import: repro.runtime's package init reaches repro.core,
        # which imports repro.llm — a module-level import here would cycle.
        from ..runtime.health import HealthMonitor

        registry = registry if registry is not None else get_registry()
        self.monitor = HealthMonitor(unhealthy_after=unhealthy_after,
                                     cooldown=cooldown)
        self._clock = clock or registry.clock
        self.last_error: BaseException | None = None
        self._opened = registry.counter("llm.provider.breaker.opened")
        self._probes = registry.counter("llm.provider.breaker.probes")
        self._closed = registry.counter("llm.provider.breaker.closed")
        self._degraded = registry.counter("llm.provider.degraded")

    def _degrade(self, prompt: str) -> str:
        self._degraded.inc()
        return pattern_fallback(prompt)

    def complete(self, prompt: str) -> str:
        monitor = self.monitor
        if not monitor.healthy:
            if not monitor.ready_to_probe(self._clock()):
                return self._degrade(prompt)
            self._probes.inc()
            try:
                value = self.inner.complete(prompt)
            except ProviderError as exc:
                self.last_error = exc
                monitor.probe_failed(self._clock())
                return self._degrade(prompt)
            monitor.probe_succeeded()
            self._closed.inc()
            self.last_error = None
            return value
        try:
            value = self.inner.complete(prompt)
        except ProviderError as exc:
            self.last_error = exc
            if monitor.record_bad(self._clock()):
                self._opened.inc()
            return self._degrade(prompt)
        monitor.record_good()
        return value

    def complete_batch(self, prompts: Sequence[str]) -> list[str]:
        # Per-prompt on purpose: one bad prompt must not poison a whole
        # batch, and the health streak advances per upstream attempt.
        return [self.complete(prompt) for prompt in prompts]


class RetryMiddleware(ProviderMiddleware):
    """Bounded retries with jittered exponential backoff.

    The backoff before retry *n* is ``min(BACKOFF_BASE * 2**(n-1),
    BACKOFF_CAP) * (1 + JITTER * U(0,1))`` from a seeded RNG —
    deterministic under test.  Only
    :class:`~repro.llm.providers.ProviderError` is retried.
    """

    def __init__(self, inner: LLMProvider, *, max_retries: int = 2,
                 seed: int = 0, sleep: Callable[[float], None] | None = None,
                 registry=None):
        super().__init__(inner)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        registry = registry if registry is not None else get_registry()
        self.max_retries = max_retries
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep if sleep is not None else _no_sleep
        self._retries = registry.counter("llm.provider.retries")

    def _backoff(self, retry_index: int) -> float:
        base = min(BACKOFF_BASE * (2 ** retry_index), BACKOFF_CAP)
        return base * (1.0 + JITTER * float(self._rng.random()))

    def complete(self, prompt: str) -> str:
        error: ProviderError | None = None
        for attempt in range(1 + self.max_retries):
            if attempt > 0:
                self._retries.inc()
                self._sleep(self._backoff(attempt - 1))
            try:
                return self.inner.complete(prompt)
            except ProviderError as exc:
                error = exc
        raise error


def build_provider_stack(
    provider: LLMProvider, *,
    breaker: bool = True, unhealthy_after: int = 3, cooldown: float = 30.0,
    max_retries: int = 2, seed: int = 0,
    clock: Callable[[], float] | None = None,
    sleep: Callable[[float], None] | None = None, registry=None,
) -> LLMProvider:
    """Compose the middleware stack in contract order: breaker over retry.

    ``max_retries=0`` disables the retry tier and ``breaker=False`` the
    breaker; what remains always nests per the module-level ordering
    contract.  The shared ``clock`` / ``sleep`` / ``seed`` knobs keep a
    fully-enabled stack deterministic (``repro replay`` is
    byte-identical with the stack on).
    """
    stacked = provider
    if max_retries > 0:
        stacked = RetryMiddleware(stacked, max_retries=max_retries,
                                  seed=seed, sleep=sleep, registry=registry)
    if breaker:
        stacked = CircuitBreakerMiddleware(stacked,
                                           unhealthy_after=unhealthy_after,
                                           cooldown=cooldown, clock=clock,
                                           registry=registry)
    return stacked
