"""Composable traffic-control middleware over any :class:`LLMProvider`.

The LEI stage puts an LLM on the hot path of onboarding every new
system; at production traffic the provider boundary needs the same
controls any remote dependency gets.  Each middleware here is itself an
:class:`~repro.llm.providers.LLMProvider` wrapping an inner one, so the
stack composes freely and every call site stays provider-agnostic.

**Ordering contract** (outermost first — :func:`build_provider_stack`
enforces it):

1. :class:`CircuitBreakerMiddleware` — after ``unhealthy_after``
   consecutive *budget-exhausted* failures, degrade to the
   pattern-library fallback and probe per the shared
   :class:`~repro.runtime.health.HealthMonitor` state machine.
2. :class:`HedgedRetryMiddleware` — jittered exponential backoff,
   optionally hedging retries to a secondary provider.
3. :class:`RateLimitMiddleware` — token bucket; every real upstream
   attempt (including retries) pays a token.

Breaker above retry so it only counts failures the retry budget could
not absorb; rate limit innermost so hedges and retries cannot exceed the
upstream quota.  Memoization is not a tier here: it is
:class:`~repro.llm.cache.CachedLLM`, which ``--llm cached:path=...``
places *under* the breaker, so degraded fallback answers never reach
disk.  All activity is mirrored into ``repro.obs`` under
``llm.provider.*``.

A stack is owned by one process (one shard) and is never shared across
threads, so no tier takes a lock; a stack pickles plainly, and each
shard process gets its own copy.

Every middleware takes injectable ``clock``/``sleep``/``seed`` knobs, so
the whole stack is deterministic under test and fuzz harnesses — the
``flaky-provider-within-retry-budget`` invariant drives a flaky upstream
through this exact composition.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..obs import get_registry
from .prompts import extract_log_from_prompt
from .providers import LLMProvider, ProviderError
from .simulated import fallback_rewrite

__all__ = [
    "ProviderMiddleware", "CircuitBreakerMiddleware", "HedgedRetryMiddleware",
    "RateLimitMiddleware", "RateLimitExceeded", "pattern_fallback",
    "build_provider_stack",
]


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
    while open, every prompt is answered by ``fallback`` immediately
    (``llm.provider.degraded``); after ``cooldown`` seconds the next
    prompt is a half-open probe whose failure doubles the cooldown
    (capped 16x) and whose success closes the breaker.

    Only :class:`~repro.llm.providers.ProviderError` trips the breaker —
    anything else is a programming error and propagates.
    """

    def __init__(self, inner: LLMProvider, *,
                 fallback: Callable[[str], str] | None = None,
                 unhealthy_after: int = 3, cooldown: float = 30.0,
                 clock: Callable[[], float] | None = None, registry=None):
        super().__init__(inner)
        # Local import: repro.runtime's package init reaches repro.core,
        # which imports repro.llm — a module-level import here would cycle.
        from ..runtime.health import HealthMonitor

        registry = registry if registry is not None else get_registry()
        self.monitor = HealthMonitor(unhealthy_after=unhealthy_after,
                                     cooldown=cooldown)
        self._fallback = fallback if fallback is not None else pattern_fallback
        self._clock = clock or registry.clock
        self.last_error: BaseException | None = None
        self._opened = registry.counter("llm.provider.breaker.opened")
        self._probes = registry.counter("llm.provider.breaker.probes")
        self._closed = registry.counter("llm.provider.breaker.closed")
        self._degraded = registry.counter("llm.provider.degraded")

    def _degrade(self, prompt: str) -> str:
        self._degraded.inc()
        return self._fallback(prompt)

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


class HedgedRetryMiddleware(ProviderMiddleware):
    """Bounded retries with jittered exponential backoff, optionally
    hedged to a secondary provider.

    Attempt 0 always goes to ``inner``; once it fails, retries alternate
    between the ``hedge`` provider (when given) and ``inner``, so a
    single slow/broken primary does not consume the whole budget.  The
    backoff before retry *n* is ``min(base * 2**(n-1), cap) * (1 +
    jitter * U(0,1))`` from a seeded RNG — deterministic under test.
    Only :class:`~repro.llm.providers.ProviderError` is retried.
    """

    def __init__(self, inner: LLMProvider, *, hedge: LLMProvider | None = None,
                 max_retries: int = 2, backoff_base: float = 0.05,
                 backoff_cap: float = 1.0, jitter: float = 0.5,
                 seed: int = 0, sleep: Callable[[float], None] | None = None,
                 registry=None):
        super().__init__(inner)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        registry = registry if registry is not None else get_registry()
        self.hedge = hedge
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep if sleep is not None else _no_sleep
        self._retries = registry.counter("llm.provider.retries")
        self._hedged = registry.counter("llm.provider.hedged")

    def _backoff(self, retry_index: int) -> float:
        base = min(self.backoff_base * (2 ** retry_index), self.backoff_cap)
        return base * (1.0 + self.jitter * float(self._rng.random()))

    def complete(self, prompt: str) -> str:
        error: ProviderError | None = None
        for attempt in range(1 + self.max_retries):
            provider = self.inner
            if attempt > 0:
                self._retries.inc()
                self._sleep(self._backoff(attempt - 1))
                if self.hedge is not None and attempt % 2 == 1:
                    provider = self.hedge
                    self._hedged.inc()
            try:
                return provider.complete(prompt)
            except ProviderError as exc:
                error = exc
        raise error


class RateLimitExceeded(ProviderError):
    """Raised in non-blocking mode when the token bucket is empty."""


class RateLimitMiddleware(ProviderMiddleware):
    """Token-bucket rate limiting of upstream calls.

    The bucket holds up to ``burst`` tokens and refills at ``rate``
    tokens/second by the injected clock; each upstream call consumes
    one.  When empty, blocking mode sleeps (injectable) until a token
    accrues; non-blocking mode raises :class:`RateLimitExceeded`
    (a :class:`ProviderError`, so the retry tier backs off and retries).

    Robust to clock skew: a clock that jumps backwards never mints
    tokens and never rewinds the refill origin, so the enforced rate is
    an upper bound even under a skewed clock.
    """

    def __init__(self, inner: LLMProvider, *, rate: float, burst: float = 1.0,
                 block: bool = True, clock: Callable[[], float] | None = None,
                 sleep: Callable[[float], None] | None = None, registry=None):
        super().__init__(inner)
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        registry = registry if registry is not None else get_registry()
        self.rate = rate
        self.burst = float(burst)
        self.block = block
        self._clock = clock or registry.clock
        self._sleep = sleep if sleep is not None else _no_sleep
        self._tokens = float(burst)
        self._refilled_at = self._clock()
        self._throttled = registry.counter("llm.provider.throttled")
        self._waited = registry.counter("llm.provider.throttle_wait_seconds")

    @property
    def tokens(self) -> float:
        """Current token balance (refilled to now) — for tests/ops."""
        self._refill(self._clock())
        return self._tokens

    def _refill(self, now: float) -> None:
        # Skew guard: elapsed is clamped at zero and the origin never
        # rewinds, so backwards clock jumps cannot mint tokens.
        elapsed = max(0.0, now - self._refilled_at)
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._refilled_at = now

    def _acquire(self) -> None:
        throttled = False
        while True:
            self._refill(self._clock())
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            needed = (1.0 - self._tokens) / self.rate
            if not self.block:
                self._throttled.inc()
                raise RateLimitExceeded(
                    f"token bucket empty (rate={self.rate}/s); "
                    f"retry in {needed:.3f}s")
            if not throttled:
                throttled = True
                self._throttled.inc()
            self._waited.inc(needed)
            self._sleep(needed)

    def complete(self, prompt: str) -> str:
        self._acquire()
        return self.inner.complete(prompt)

    def complete_batch(self, prompts: Sequence[str]) -> list[str]:
        # One token per prompt: a batch cannot sidestep the quota.
        for _ in prompts:
            self._acquire()
        return self.inner.complete_batch(prompts)


def build_provider_stack(
    provider: LLMProvider, *,
    breaker: bool = True, unhealthy_after: int = 3, cooldown: float = 30.0,
    fallback: Callable[[str], str] | None = None,
    max_retries: int = 2, hedge: LLMProvider | None = None,
    backoff_base: float = 0.05, backoff_cap: float = 1.0, jitter: float = 0.5,
    rate: float | None = None, burst: float = 1.0,
    seed: int = 0, clock: Callable[[], float] | None = None,
    sleep: Callable[[float], None] | None = None, registry=None,
) -> LLMProvider:
    """Compose the full middleware stack in contract order.

    ``rate=None`` disables the token bucket, ``max_retries=0`` the retry
    tier, and ``breaker=False`` the breaker; what remains always nests
    per the module-level ordering contract.  The shared ``clock`` /
    ``sleep`` / ``seed`` knobs keep a fully-enabled stack deterministic
    (``repro replay`` is byte-identical with the stack on).
    """
    stacked = provider
    if rate is not None:
        stacked = RateLimitMiddleware(stacked, rate=rate, burst=burst,
                                      clock=clock, sleep=sleep,
                                      registry=registry)
    if max_retries > 0:
        stacked = HedgedRetryMiddleware(stacked, hedge=hedge,
                                        max_retries=max_retries,
                                        backoff_base=backoff_base,
                                        backoff_cap=backoff_cap, jitter=jitter,
                                        seed=seed, sleep=sleep,
                                        registry=registry)
    if breaker:
        stacked = CircuitBreakerMiddleware(stacked, fallback=fallback,
                                           unhealthy_after=unhealthy_after,
                                           cooldown=cooldown, clock=clock,
                                           registry=registry)
    return stacked
