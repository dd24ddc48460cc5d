"""One provider spec grammar shared by every CLI entry point.

``repro fit``, ``serve``, ``replay`` and ``fuzz`` all accept the same
``--llm`` spec and resolve it here, so pointing the pipeline at a
different provider is one flag everywhere::

    --llm simulated
    --llm simulated:hallucination_rate=0.05
    --llm flaky:error_rate=0.1,latency=0.02
    --llm cached:path=artifacts/interpretations.json

Grammar: ``name[:key=value[,key=value...]]``.  Values coerce to bool
(``true``/``false``), int, float, then fall back to string, in that
order.  :func:`provider_from_spec` builds the bare provider;
:func:`resolve_provider` adds the CLI convenience — the provider
supervisor (see :class:`repro.llm.middleware.ProviderSupervisor`).
"""

from __future__ import annotations

from typing import Any, Callable

from .cache import CachedLLM
from .middleware import ProviderSupervisor
from .providers import FlakyLLM, LLMProvider
from .simulated import SimulatedLLM

__all__ = [
    "PROVIDER_BUILDERS", "parse_provider_spec", "provider_from_spec",
    "default_provider", "resolve_provider", "DEFAULT_SPEC",
]

DEFAULT_SPEC = "simulated"


def _coerce(raw: str) -> Any:
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            continue
    return raw


def parse_provider_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """Split ``name[:key=value,...]`` into the name and coerced options."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty provider spec")
    name, _, raw_options = spec.partition(":")
    name = name.strip().lower()
    options: dict[str, Any] = {}
    if raw_options:
        for pair in raw_options.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    f"malformed provider option {pair!r} in spec {spec!r} "
                    f"(expected key=value)")
            options[key] = _coerce(value.strip())
    return name, options


def _build_simulated(options: dict[str, Any], seed: int) -> LLMProvider:
    options.setdefault("seed", seed)
    return SimulatedLLM(**options)


def _build_flaky(options: dict[str, Any], seed: int) -> LLMProvider:
    options.setdefault("seed", seed)
    return FlakyLLM(**options)


def _build_cached(options: dict[str, Any], seed: int) -> LLMProvider:
    path = options.pop("path", None)
    if path is None:
        raise ValueError("cached provider requires a path "
                         "(e.g. --llm cached:path=cache.json)")
    inner_options = {k: options.pop(k) for k in ("hallucination_rate", "match_threshold")
                     if k in options}
    inner = _build_simulated(inner_options, seed)
    return CachedLLM(inner, path, **options)


PROVIDER_BUILDERS: dict[str, Callable[[dict[str, Any], int], LLMProvider]] = {
    "simulated": _build_simulated,
    "flaky": _build_flaky,
    "cached": _build_cached,
}


def provider_from_spec(spec: str, *, seed: int = 0) -> LLMProvider:
    """Build the bare provider named by ``spec`` (no middleware)."""
    name, options = parse_provider_spec(spec)
    builder = PROVIDER_BUILDERS.get(name)
    if builder is None:
        known = ", ".join(sorted(PROVIDER_BUILDERS))
        raise ValueError(f"unknown LLM provider {name!r} (known: {known})")
    try:
        return builder(options, seed)
    except TypeError as exc:
        raise ValueError(f"bad options for provider spec {spec!r}: {exc}") from exc


def default_provider(seed: int = 0) -> LLMProvider:
    """The provider the pipeline uses when none is configured."""
    return SimulatedLLM(seed=seed)


def resolve_provider(spec: str | None, *, seed: int = 0,
                     middleware: bool = True) -> LLMProvider:
    """Resolve CLI flags into a ready-to-use provider.

    ``middleware=False`` skips the provider supervisor (the spec'd
    provider is used bare).
    """
    provider = provider_from_spec(spec or DEFAULT_SPEC, seed=seed)
    if middleware:
        provider = ProviderSupervisor(provider)
    return provider
