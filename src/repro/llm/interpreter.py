"""LEI: LLM-based event interpretation pipeline (§III-C, §VI-B2).

Drives the LLM over a template inventory (one representative message per
event), then runs the operator review loop the paper describes: generated
interpretations are checked for *format and length* errors — not semantic
correctness — and regenerated when they fail, bounding the impact of
hallucination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..parsing.template_store import TemplateStore
from .prompts import build_interpretation_prompt
from .providers import LLMProvider

__all__ = ["InterpretationReport", "EventInterpreter", "review_interpretation"]

_MAX_WORDS = 40
_MIN_WORDS = 2


def review_interpretation(text: str) -> list[str]:
    """Format/length review of one interpretation (§VI-B2).

    Returns a list of problems; empty means the interpretation passes.
    The review intentionally checks only mechanical properties — the paper
    notes operators review format and length, not semantics.
    """
    problems: list[str] = []
    stripped = text.strip()
    if not stripped:
        problems.append("empty interpretation")
        return problems
    words = stripped.split()
    if len(words) < _MIN_WORDS:
        problems.append(f"too short ({len(words)} words)")
    if len(words) > _MAX_WORDS:
        problems.append(f"too long ({len(words)} words)")
    if "<*>" in stripped:
        problems.append("contains unexpanded template wildcard")
    if "\n" in stripped:
        problems.append("contains line breaks")
    return problems


@dataclass
class InterpretationReport:
    """Bookkeeping for one LEI run over a template inventory."""

    interpretations: dict[int, str]
    llm_calls: int
    regenerated: int
    failed_review: list[int]

    def __len__(self) -> int:
        return len(self.interpretations)


class EventInterpreter:
    """Runs LEI over a parsed template inventory.

    Parameters
    ----------
    llm:
        Any :class:`repro.llm.providers.LLMProvider` (the structural
        contract: a callable ``complete``; ``complete_batch`` is used
        when present, so a batching client sees whole inventories at
        once).
    max_regenerations:
        Review/regenerate attempts per template before keeping the best
        available output (mirrors the operator workflow in §VI-B2).
    """

    def __init__(self, llm: LLMProvider, max_regenerations: int = 2):
        if max_regenerations < 0:
            raise ValueError("max_regenerations must be non-negative")
        self.llm = llm
        self.max_regenerations = max_regenerations

    def _complete_batch(self, prompts: Sequence[str]) -> list[str]:
        """Batch first pass; per-prompt loop for bare-``complete`` clients."""
        batch = getattr(self.llm, "complete_batch", None)
        if callable(batch):
            return list(batch(prompts))
        return [self.llm.complete(prompt) for prompt in prompts]

    def interpret_event(self, system: str, representative: str) -> tuple[str, int]:
        """Interpret one event; returns (interpretation, regeneration count)."""
        prompt = build_interpretation_prompt(system, representative)
        text = self.llm.complete(prompt)
        return self._review_loop(prompt, text)

    def _review_loop(self, prompt: str, text: str) -> tuple[str, int]:
        """Operator review: regenerate while the output fails format checks."""
        regenerations = 0
        while review_interpretation(text) and regenerations < self.max_regenerations:
            text = self.llm.complete(prompt)
            regenerations += 1
        return text.strip(), regenerations

    def interpret_store(self, system: str, store: TemplateStore) -> InterpretationReport:
        """Interpret every template in ``store``.

        The first pass goes through ``complete_batch`` (one round trip
        for the whole inventory); only events whose output fails review
        re-enter the per-event regeneration loop.
        """
        inventory = store.inventory()
        event_ids = list(inventory)
        prompts = [build_interpretation_prompt(system, inventory[event_id][1])
                   for event_id in event_ids]
        first_pass = self._complete_batch(prompts)

        interpretations: dict[int, str] = {}
        calls = len(prompts)
        regenerated = 0
        failed: list[int] = []
        for event_id, prompt, text in zip(event_ids, prompts, first_pass):
            text, regen = self._review_loop(prompt, text)
            calls += regen
            regenerated += regen
            if review_interpretation(text):
                failed.append(event_id)
            interpretations[event_id] = text
        return InterpretationReport(
            interpretations=interpretations,
            llm_calls=calls,
            regenerated=regenerated,
            failed_review=failed,
        )
