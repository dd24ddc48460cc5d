"""LLM provider contract and concrete upstream providers.

This module is the seam the paper's LEI stage needs in production: every
LLM the pipeline talks to — the offline :class:`SimulatedLLM`, a flaky
remote stand-in, or a hosted model — is an :class:`LLMProvider`.  The
contract is two methods:

* ``complete(prompt)`` — one prompt, one completion (abstract).
* ``complete_batch(prompts)`` — many prompts, order-preserving; the
  default implementation loops over ``complete`` so existing one-method
  clients inherit a correct batch path for free, while real endpoints
  (or the provider supervisor) override it with something smarter.

``isinstance(x, LLMProvider)`` stays structural: anything with a
callable ``complete`` qualifies, so duck-typed clients keep working.

:class:`FlakyLLM` simulates the remote-endpoint failure modes a
millions-of-users deployment must absorb — seeded latency/jitter,
transient errors, and format-breaking hallucination bursts — so the
provider supervisor (:mod:`repro.llm.middleware`) and ``repro fuzz`` can be
exercised against realistic misbehaviour, deterministically.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

from ..testing.faultpoints import fault_point

__all__ = ["LLMProvider", "ProviderError", "FlakyLLM", "garble"]


class ProviderError(RuntimeError):
    """A transient upstream failure (rate limit, 5xx, connection reset).

    The provider supervisor treats exactly this type as retryable;
    anything else propagates as a programming error.
    """


class LLMProvider(abc.ABC):
    """The provider contract every LLM call site goes through.

    Subclasses implement :meth:`complete`; :meth:`complete_batch`
    has a loop fallback so single-prompt providers are batch-correct by
    construction.
    """

    @abc.abstractmethod
    def complete(self, prompt: str) -> str:
        """Return the model's completion for ``prompt``."""

    def complete_batch(self, prompts: Sequence[str]) -> list[str]:
        """Order-preserving batch completion (default: loop fallback)."""
        return [self.complete(prompt) for prompt in prompts]

    @classmethod
    def __subclasshook__(cls, subclass: type):
        # Structural acceptance mirrors the old runtime_checkable
        # Protocol: any class with a callable ``complete`` passes
        # isinstance/issubclass, so third-party clients need no base.
        if cls is LLMProvider:
            if callable(getattr(subclass, "complete", None)):
                return True
        return NotImplemented


def garble(text: str) -> str:
    """Format-breaking corruption (unexpanded wildcard) the operator
    review loop in :mod:`repro.llm.interpreter` is designed to catch."""
    return f"{text} <*>"


class FlakyLLM(LLMProvider):
    """A deterministic simulation of an unreliable hosted endpoint.

    Wraps any provider (default: a fresh :class:`SimulatedLLM`) and,
    per call, draws from a seeded RNG to decide whether to:

    * sleep ``latency + U(0, jitter)`` seconds through the injectable
      ``sleep`` (no-op by default, so tests and fuzz stay fast);
    * raise :class:`ProviderError` with probability ``error_rate``
      (*before* consulting the inner provider, like a failed request);
    * garble the completion with probability ``hallucination_rate``
      (format-breaking output, distinct from the inner simulator's
      semantically-wrong hallucinations).

    The error draw never consumes the inner provider's RNG, so a retried
    prompt completes to exactly what a fault-free run would produce —
    the property the ``flaky-provider-within-retry-budget`` fuzz
    invariant pins down.

    The completion passes through the ``llm.provider.complete`` fault
    point, so ``repro fuzz`` plans can attack the provider supervisor
    at the provider boundary.
    """

    def __init__(self, inner: LLMProvider | None = None, *,
                 error_rate: float = 0.0, latency: float = 0.0,
                 jitter: float = 0.0, hallucination_rate: float = 0.0,
                 seed: int = 0, sleep: Callable[[float], None] | None = None):
        for name, rate in (("error_rate", error_rate),
                           ("hallucination_rate", hallucination_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if latency < 0 or jitter < 0:
            raise ValueError(f"latency/jitter must be non-negative, "
                             f"got {latency}/{jitter}")
        if inner is None:
            # Local import: simulated.py subclasses this module's ABC.
            from .simulated import SimulatedLLM

            inner = SimulatedLLM(seed=seed)
        self.inner = inner
        self.error_rate = error_rate
        self.latency = latency
        self.jitter = jitter
        self.hallucination_rate = hallucination_rate
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep if sleep is not None else _no_sleep
        self.calls = 0
        self.errors = 0
        self.slept = 0.0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if self.latency > 0 or self.jitter > 0:
            pause = self.latency + (self.jitter * float(self._rng.random())
                                    if self.jitter > 0 else 0.0)
            self.slept += pause
            self._sleep(pause)
        if self.error_rate > 0 and self._rng.random() < self.error_rate:
            self.errors += 1
            raise ProviderError(
                f"injected upstream failure (call {self.calls}, "
                f"error_rate={self.error_rate})")
        completion = self.inner.complete(prompt)
        if (self.hallucination_rate > 0
                and self._rng.random() < self.hallucination_rate):
            completion = garble(completion)
        return fault_point("llm.provider.complete", completion)


def _no_sleep(_seconds: float) -> None:
    return None
