"""Rule/pattern detector: operational failure vocabulary.

The cheapest member of the portfolio and the strongest one on a day-0
system: a fixed vocabulary of operational failure tokens (the language
ops teams grep for — ``failed``, ``panic``, ``exceeded``, ...) scored
per line.  Almost every line of a real stream is distinct, so the only
repeats worth remembering are the lines consecutive windows share
(step < window): per system the detector keeps the previous window's
line verdicts and evaluates only the lines that are new.

The vocabulary deliberately includes the ``repro.logs.drift`` synonym
targets (``unsuccessful``, ``fault``, ``surpassed``, ``lapsed``) so a
gradually-drifting system does not silently blind this member, and
matching is case-insensitive because fuzzed parameter noise re-cases
tokens.
"""

from __future__ import annotations

import re

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
    """Keyword-rule member; reuses the previous window's line verdicts."""

    name = "rules"
    warmup_windows = 0

    def __init__(self, *, tokens: frozenset[str] | None = None) -> None:
        self.tokens = FAILURE_TOKENS if tokens is None else frozenset(tokens)
        # Per system: the line verdicts of the last scored window, so the
        # map is bounded by the window size.
        self._verdicts: dict[str, dict[str, bool]] = {}

    def _line_flagged(self, message: str) -> bool:
        return any(token in self.tokens
                   for token in _TOKEN_RE.findall(message.lower()))

    def score_window(self, system: str, window: list) -> float:
        previous = self._verdicts.get(system, {})
        verdicts: dict[str, bool] = {}
        for entry in window:
            message = entry.message
            if message not in verdicts:
                verdict = previous.get(message)
                verdicts[message] = (self._line_flagged(message)
                                     if verdict is None else verdict)
        self._verdicts[system] = verdicts
        flagged = sum(verdicts[entry.message] for entry in window)
        if flagged == 0:
            return 0.0
        # One failure line is already a confident verdict; additional
        # flagged lines push the score toward certainty.
        return min(0.8 + 0.1 * flagged, 1.0)
