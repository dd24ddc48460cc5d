"""Rule/pattern detector: operational failure vocabulary, memoized.

The cheapest member of the portfolio and the strongest one on a day-0
system: a fixed vocabulary of operational failure tokens (the language
ops teams grep for — ``failed``, ``panic``, ``exceeded``, ...) scored
per line and memoized through the existing
:class:`~repro.runtime.PatternLibrary`.  Each distinct
normalized line is evaluated once per system; repeats are served from
the library (its hit/miss stats make the memoization observable), which
is the same escalation-avoidance trick the runtime gate plays for the
learned model.

The vocabulary deliberately includes the ``repro.logs.drift`` synonym
targets (``unsuccessful``, ``fault``, ``surpassed``, ``lapsed``) so a
gradually-drifting system does not silently blind this member, and
matching is case-insensitive because fuzzed parameter noise re-cases
tokens.
"""

from __future__ import annotations

import re
import zlib

from repro.runtime.pattern_library import PatternLibrary

from .base import Detector

__all__ = ["RuleDetector", "FAILURE_TOKENS"]

# Tokens that only ever appear in failure narration, plus the drift
# synonyms they reword into.  Deliberately excludes words that show up
# in healthy operational chatter ("down", "closed", "stopped").
FAILURE_TOKENS: frozenset[str] = frozenset({
    "failed", "failure", "failures", "unsuccessful",
    "error", "errors", "fault", "faults", "fatal", "panic",
    "exceeded", "surpassed", "exhausted", "expired", "lapsed",
    "timeout", "timeouts", "refused", "rejected", "aborted",
    "corrupt", "corrupted", "corruption", "crashed", "segfault",
    "stalled", "stuck", "frozen", "wedged", "deadlock", "deadlocked",
    "killed", "terminated", "unrecoverable", "invalid", "oom",
    "watchdog", "critical", "severe", "alarm",
})

_TOKEN_RE = re.compile(r"[a-z]+")


class RuleDetector(Detector):
    """Keyword-rule member memoized through a per-system PatternLibrary."""

    name = "rules"
    warmup_windows = 0

    def __init__(self, *, tokens: frozenset[str] | None = None,
                 max_patterns: int = 100_000) -> None:
        self.tokens = FAILURE_TOKENS if tokens is None else frozenset(tokens)
        self.max_patterns = max_patterns
        self._libraries: dict[str, PatternLibrary] = {}

    def library_of(self, system: str) -> PatternLibrary:
        library = self._libraries.get(system)
        if library is None:
            library = PatternLibrary(max_patterns=self.max_patterns)
            self._libraries[system] = library
        return library

    def _line_flagged(self, library: PatternLibrary, message: str) -> bool:
        pattern = (zlib.crc32(message.lower().encode("utf-8")),)
        known = library.lookup(pattern)
        if known is not None:
            return known
        flagged = any(token in self.tokens
                      for token in _TOKEN_RE.findall(message.lower()))
        library.remember(pattern, flagged)
        return flagged

    def score_window(self, system: str, window: list) -> float:
        library = self.library_of(system)
        flagged = sum(1 for entry in window
                      if self._line_flagged(library, entry.message))
        if flagged == 0:
            return 0.0
        # One failure line is already a confident verdict; additional
        # flagged lines push the score toward certainty.
        return min(0.8 + 0.1 * flagged, 1.0)
