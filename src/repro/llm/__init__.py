"""LLM-based event interpretation (LEI) substrate.

Ships a :class:`SimulatedLLM` stand-in for ChatGPT-4o plus the LEI
pipeline (prompting, interpretation, operator review/regeneration) and
the production provider stack: every LLM the pipeline talks to is an
:class:`LLMProvider` (``complete`` / ``complete_batch``), composed with
traffic-control middleware — memory cache, request coalescing, circuit
breaker, hedged retries, rate limiting (:mod:`repro.llm.middleware`) —
and selected by one CLI-wide spec grammar (:mod:`repro.llm.factory`).
"""

from .prompts import SYSTEM_DESCRIPTIONS, build_interpretation_prompt, extract_log_from_prompt
from .providers import FlakyLLM, LLMProvider, ProviderError, garble
from .simulated import SimulatedLLM, fallback_rewrite, normalize_tokens
from .cache import CachedLLM
from .middleware import (
    CircuitBreakerMiddleware,
    CoalescingMiddleware,
    HedgedRetryMiddleware,
    MemoryCacheMiddleware,
    ProviderMiddleware,
    RateLimitExceeded,
    RateLimitMiddleware,
    build_provider_stack,
    pattern_fallback,
)
from .interpreter import EventInterpreter, InterpretationReport, review_interpretation
from .factory import (
    DEFAULT_SPEC,
    default_provider,
    parse_provider_spec,
    provider_from_spec,
    resolve_provider,
)

__all__ = [
    "LLMProvider", "ProviderError", "FlakyLLM", "garble",
    "CachedLLM",
    "build_interpretation_prompt", "extract_log_from_prompt", "SYSTEM_DESCRIPTIONS",
    "SimulatedLLM", "normalize_tokens", "fallback_rewrite",
    "ProviderMiddleware", "MemoryCacheMiddleware", "CoalescingMiddleware",
    "CircuitBreakerMiddleware", "HedgedRetryMiddleware", "RateLimitMiddleware",
    "RateLimitExceeded", "build_provider_stack", "pattern_fallback",
    "EventInterpreter", "InterpretationReport", "review_interpretation",
    "DEFAULT_SPEC", "parse_provider_spec", "provider_from_spec",
    "default_provider", "resolve_provider",
]
