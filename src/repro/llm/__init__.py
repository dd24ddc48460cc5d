"""LLM-based event interpretation (LEI) substrate.

Ships a :class:`SimulatedLLM` stand-in for ChatGPT-4o plus the LEI
pipeline (prompting, interpretation, operator review/regeneration) and
the production provider stack: every LLM the pipeline talks to is an
:class:`LLMProvider` (``complete`` / ``complete_batch``), composed with
one supervisor — bounded retries feeding a circuit breaker
(:mod:`repro.llm.middleware`) — memoized by one persistent
cache (:class:`CachedLLM`), and selected by one CLI-wide spec grammar
(:mod:`repro.llm.factory`).
"""

from .prompts import SYSTEM_DESCRIPTIONS, build_interpretation_prompt, extract_log_from_prompt
from .providers import FlakyLLM, LLMProvider, ProviderError, garble
from .simulated import SimulatedLLM, fallback_rewrite, normalize_tokens
from .cache import CachedLLM
from .middleware import ProviderSupervisor, pattern_fallback
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
    "ProviderSupervisor", "pattern_fallback",
    "EventInterpreter", "InterpretationReport", "review_interpretation",
    "DEFAULT_SPEC", "parse_provider_spec", "provider_from_spec",
    "default_provider", "resolve_provider",
]
