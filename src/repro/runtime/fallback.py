"""Graceful degradation: the pattern-library fast path as a scorer.

When a shard's model worker is unhealthy, windows the library already
knows are answered at the gate as usual; *novel* windows land here
instead of being dropped.  The heuristic is deliberately transparent: an
event id is considered alarming if every remembered pattern containing
it was judged anomalous; a novel window is flagged when it contains an
alarming id.  Verdicts produced this way are **never** written back to
the library — once the worker recovers, the model re-judges those
patterns from scratch.
"""

from __future__ import annotations

import dataclasses

from ..core.report import AnomalyReport, build_report
from .scheduler import PendingWindow

__all__ = ["PatternFallback"]

# Degraded windows score 1.0 (an alarming id) or 0.0 against this.
THRESHOLD = 0.5


class PatternFallback:
    """Scores novel windows from remembered verdicts while degraded."""

    def __init__(self, library):
        self.library = library
        self._alarming: frozenset[int] = frozenset()
        self._built_from = -1

    def _alarming_ids(self) -> frozenset[int]:
        """Ids seen only in anomalous remembered patterns (cached)."""
        if len(self.library) != self._built_from:
            anomalous: set[int] = set()
            normal: set[int] = set()
            for pattern, verdict in self.library.snapshot().items():
                (anomalous if verdict else normal).update(pattern)
            self._alarming = frozenset(anomalous - normal)
            self._built_from = len(self.library)
        return self._alarming

    def score(self, pending: PendingWindow) -> AnomalyReport:
        """Degraded verdict for one novel window (marked in metadata)."""
        alarming = self._alarming_ids()
        hit = bool(alarming.intersection(pending.pattern))
        score = 1.0 if hit else 0.0
        messages = [entry.message for entry in pending.window]
        report = build_report(
            system=pending.system,
            score=score,
            threshold=THRESHOLD,
            messages=messages,
            interpretations=messages,
            timestamps=[entry.timestamp for entry in pending.window],
        )
        return dataclasses.replace(
            report, metadata={**report.metadata, "degraded": True},
        )
