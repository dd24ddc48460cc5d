"""One ``--detectors`` spec grammar shared by every CLI entry point.

``repro replay``, ``serve`` and ``fuzz`` all accept the same
``--detectors`` spec and resolve it here, mirroring the ``--llm``
grammar from :mod:`repro.llm.factory`::

    --detectors ewma,lof,rules
    --detectors ewma,lof,model:vote
    --detectors ewma,lof,rules,model:stacker,threshold=0.6

Grammar: ``member[,member...][:mode[,key=value...]]``.  Members before
the colon name portfolio builders from :data:`DETECTOR_BUILDERS`; the
first token after the colon is the combination mode (``vote`` / ``max``
/ ``stacker``, default ``max``), and the remaining ``key=value`` pairs
are :class:`~repro.detectors.ensemble.Ensemble` options with the same
bool/int/float/str coercion the LLM specs use.

The ``model`` member adapts whatever fitted pipeline the caller passes;
with none (a day-0 system has nothing to load) the member is present
but permanently degraded, which is exactly the behavior the day-0 fuzz
invariants pin down.
"""

from __future__ import annotations

from typing import Any, Callable

from .base import Detector
from .ensemble import ENSEMBLE_MODES, Ensemble
from .ewma import EwmaRateDetector
from .lof import LofLiteDetector
from .model import ModelDetector
from .rules import RuleDetector

__all__ = [
    "DETECTOR_BUILDERS", "DEFAULT_DETECTORS_SPEC",
    "parse_detectors_spec", "build_detector", "ensemble_from_spec",
]

DEFAULT_DETECTORS_SPEC = "ewma,lof,rules,model:max"


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


def _build_model(pipeline, seed: int) -> Detector:
    return ModelDetector(pipeline)


def _build_lof(pipeline, seed: int) -> Detector:
    # With a pipeline, LOF embeds through the pipeline's own encoder
    # (restored with it, never retrained); a day-0 ensemble loads the
    # default one.
    return LofLiteDetector(encoder=None if pipeline is None else pipeline.encoder)


DETECTOR_BUILDERS: dict[str, Callable[[Any, int], Detector]] = {
    "ewma": lambda pipeline, seed: EwmaRateDetector(),
    "lof": _build_lof,
    "rules": lambda pipeline, seed: RuleDetector(),
    "model": _build_model,
}


def parse_detectors_spec(spec: str) -> tuple[list[str], str, dict[str, Any]]:
    """Split ``member,...[:mode,key=value...]`` into members, mode, options."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty detectors spec")
    member_part, _, tail = spec.partition(":")
    members = [token.strip().lower() for token in member_part.split(",") if token.strip()]
    if not members:
        raise ValueError(f"no detector members in spec {spec!r}")
    unknown = [name for name in members if name not in DETECTOR_BUILDERS]
    if unknown:
        known = ", ".join(sorted(DETECTOR_BUILDERS))
        raise ValueError(f"unknown detectors {unknown} (known: {known})")
    if len(set(members)) != len(members):
        raise ValueError(f"duplicate detector members in spec {spec!r}")
    mode = "max"
    options: dict[str, Any] = {}
    if tail:
        tokens = [token.strip() for token in tail.split(",")]
        head = tokens[0].lower()
        if "=" in tokens[0]:
            pairs = tokens
        else:
            if head not in ENSEMBLE_MODES:
                raise ValueError(
                    f"unknown ensemble mode {tokens[0]!r} in spec {spec!r} "
                    f"(expected one of {ENSEMBLE_MODES})")
            mode = head
            pairs = tokens[1:]
        for pair in pairs:
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    f"malformed ensemble option {pair!r} in spec {spec!r} "
                    f"(expected key=value)")
            options[key] = _coerce(value.strip())
    return members, mode, options


def build_detector(name: str, *, pipeline=None, seed: int = 0) -> Detector:
    """Build one portfolio member by registry name."""
    builder = DETECTOR_BUILDERS.get(name)
    if builder is None:
        known = ", ".join(sorted(DETECTOR_BUILDERS))
        raise ValueError(f"unknown detector {name!r} (known: {known})")
    return builder(pipeline, seed)


def ensemble_from_spec(spec: str, *, pipeline=None, seed: int = 0,
                       registry=None) -> Ensemble:
    """Build the full ensemble named by ``spec``.

    ``pipeline`` is the fitted LogSynergy pipeline handed to the
    ``model`` member (``None`` on a day-0 system: the member degrades).
    """
    members, mode, options = parse_detectors_spec(spec)
    detectors = [build_detector(name, pipeline=pipeline, seed=seed)
                 for name in members]
    try:
        return Ensemble(detectors, mode, seed=seed, registry=registry, **options)
    except TypeError as exc:
        raise ValueError(f"bad options for detectors spec {spec!r}: {exc}") from exc
