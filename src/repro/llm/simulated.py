"""Simulated LLM for offline event interpretation.

The paper uses ChatGPT-4o to rewrite each log template into a standardized
one-sentence interpretation.  No hosted model is reachable here, so this
module simulates the *capability that matters for LogSynergy*: an LLM
"knows" what operational events log lines describe, independent of each
system's surface syntax, and restates them in a uniform vocabulary.

The simulator carries a knowledge base of phrase skeletons (constant
tokens of every dialect rendering of every concept in
:mod:`repro.logs.events`) mapped to that concept's canonical
interpretation.  Given a log message, it scores the message's tokens
against the skeletons (the overlap share of each skeleton's tokens) and
returns the best concept's canonical sentence.  A token → skeleton index
built once per simulator limits the scoring to the skeletons that share
a token with the message; the earliest skeleton in knowledge order wins
a tie, and a message sharing no token with any skeleton matches nothing.
Messages that match nothing (templates outside the catalog, e.g. from real
log files) fall back to a normalizing rewrite — lowercased, de-numbered,
abbreviation-expanded — which is what a real LLM does for unseen events.

Hallucination (§III-C, §IV-E2) is reproduced with ``hallucination_rate``:
with that probability the simulator returns a *wrong* interpretation
(another concept's sentence or a corrupted one), which the operator-review
loop in :mod:`repro.llm.interpreter` is designed to catch.
"""

from __future__ import annotations

import re

import numpy as np

from ..logs.events import CONCEPTS, EventConcept
from ..testing.faultpoints import fault_point
from .prompts import extract_log_from_prompt
from .providers import LLMProvider

__all__ = ["SimulatedLLM", "normalize_tokens", "fallback_rewrite"]

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")
_NUMBERLIKE = re.compile(r"^(?:\d+|0x[0-9a-f]+)$")

# Abbreviation expansion applied in fallback rewrites — mirrors the paper's
# example of the LLM expanding "Los" to "loss of signal".
_ABBREVIATIONS = {
    "los": "loss of signal",
    "rc": "return code",
    "rss": "resident memory",
    "rps": "requests per second",
    "crc": "cyclic redundancy check",
    "oom": "out of memory",
    "fs": "filesystem",
    "rpc": "remote procedure call",
    "tcp": "network transport",
    "wal": "write-ahead log",
}

# Tokens so common across templates that they carry no signal for matching.
_STOPWORDS = {"the", "a", "an", "of", "on", "in", "to", "for", "from", "by", "at", "is", "and", "with"}


def normalize_tokens(text: str) -> list[str]:
    """Lowercase, split on non-alphanumerics, drop numbers and stopwords."""
    tokens = [t for t in _TOKEN_SPLIT.split(text.lower()) if t]
    return [t for t in tokens if t not in _STOPWORDS and not _NUMBERLIKE.match(t)]


def fallback_rewrite(message: str) -> str:
    """Normalizing rewrite for messages outside the knowledge base.

    Module-level so degraded paths (the circuit breaker's
    pattern-library fallback in :mod:`repro.llm.middleware`) can produce
    the same rewrite without holding a simulator instance.
    """
    tokens = [t for t in _TOKEN_SPLIT.split(message.lower()) if t]
    rewritten = []
    for token in tokens:
        if _NUMBERLIKE.match(token):
            continue
        rewritten.append(_ABBREVIATIONS.get(token, token))
    sentence = " ".join(rewritten).strip()
    if not sentence:
        sentence = "unrecognized log event"
    return f"Event: {sentence}."


class SimulatedLLM(LLMProvider):
    """Deterministic stand-in for the ChatGPT-4o interpreter.

    Parameters
    ----------
    hallucination_rate:
        Probability of returning an incorrect interpretation for a query.
    match_threshold:
        Minimum skeleton-overlap score to accept a knowledge-base match;
        below it the fallback rewrite is used.
    seed:
        Seed for the hallucination draw (determinism for tests).
    """

    def __init__(self, hallucination_rate: float = 0.0, match_threshold: float = 0.35,
                 seed: int = 0):
        if not 0.0 <= hallucination_rate < 1.0:
            raise ValueError(f"hallucination_rate must be in [0, 1), got {hallucination_rate}")
        self.hallucination_rate = hallucination_rate
        self.match_threshold = match_threshold
        self._rng = np.random.default_rng(seed)
        self._knowledge: list[tuple[frozenset[str], EventConcept]] = []
        for concept in CONCEPTS:
            for phrase in concept.phrases.values():
                skeleton = frozenset(normalize_tokens(phrase.replace("<*>", " ")))
                if skeleton:
                    self._knowledge.append((skeleton, concept))
        # token -> positions in ``_knowledge`` of the skeletons holding it.
        self._index: dict[str, list[int]] = {}
        for position, (skeleton, _) in enumerate(self._knowledge):
            for token in skeleton:
                self._index.setdefault(token, []).append(position)
        self.call_count = 0

    # ------------------------------------------------------------------
    def _best_match(self, tokens: set[str]) -> tuple[EventConcept | None, float]:
        shared: dict[int, int] = {}
        for token in tokens:
            for position in self._index.get(token, ()):
                shared[position] = shared.get(position, 0) + 1
        best: EventConcept | None = None
        best_score = 0.0
        # Knowledge order with a strict ``>``: the earliest skeleton wins ties.
        for position in sorted(shared):
            skeleton, concept = self._knowledge[position]
            overlap = shared[position] / len(skeleton)
            if overlap > best_score:
                best, best_score = concept, overlap
        return best, best_score

    def _fallback_rewrite(self, message: str) -> str:
        """Normalizing rewrite for messages outside the knowledge base."""
        return fallback_rewrite(message)

    def _hallucinate(self, correct: str) -> str:
        """Produce a wrong interpretation (the §IV-E2 internal threat)."""
        if self._rng.random() < 0.5 and len(CONCEPTS) > 1:
            wrong = CONCEPTS[int(self._rng.integers(len(CONCEPTS)))]
            if wrong.canonical != correct:
                return wrong.canonical
        # Fabricated/garbled variant: a real failure mode is confident nonsense.
        return "The subsystem completed a routine maintenance handshake successfully."

    # ------------------------------------------------------------------
    def complete(self, prompt: str) -> str:
        """Interpret the log message embedded in ``prompt``."""
        self.call_count += 1
        message = extract_log_from_prompt(prompt)
        tokens = set(normalize_tokens(message))
        concept, score = self._best_match(tokens)
        if concept is not None and score >= self.match_threshold:
            interpretation = concept.canonical
        else:
            interpretation = self._fallback_rewrite(message)
        if self.hallucination_rate > 0 and self._rng.random() < self.hallucination_rate:
            interpretation = self._hallucinate(interpretation)
        # Injected hallucination bursts corrupt the completion here, past
        # the matcher, the way a hosted model garbles output at the wire.
        return fault_point("llm.simulated.complete", interpretation)
