"""Pattern library gate (§VI-A "Detection").

Production log volume makes running the model on every window too
expensive, so LogSynergy first matches each window's event-id pattern
against a library of previously-adjudicated patterns.  Known patterns are
answered from the library; only novel patterns reach the model, and the
model's verdict is then remembered.  This module implements that cache
with hit-rate accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PatternLibrary", "PatternStats"]


@dataclass
class PatternStats:
    """Hit/miss accounting for the gate."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        """Total event count."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the library."""
        return self.hits / self.total if self.total else 0.0


class PatternLibrary:
    """Remembers model verdicts keyed by window event-id patterns.

    The key is the window's pattern: the sorted tuple of its distinct
    event ids (computed by the shard gate).
    """

    def __init__(self, max_patterns: int = 100_000):
        if max_patterns <= 0:
            raise ValueError("max_patterns must be positive")
        self.max_patterns = max_patterns
        self._verdicts: dict[tuple[int, ...], bool] = {}
        self.stats = PatternStats()

    def __len__(self) -> int:
        return len(self._verdicts)

    def lookup(self, pattern: tuple[int, ...]) -> bool | None:
        """Return the remembered verdict, or ``None`` for a novel pattern."""
        verdict = self._verdicts.get(pattern)
        if verdict is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return verdict

    def remember(self, pattern: tuple[int, ...], is_anomalous: bool) -> None:
        """Record a model verdict (evicts nothing; capped instead)."""
        if len(self._verdicts) >= self.max_patterns and pattern not in self._verdicts:
            return  # library full: keep answering from what we have
        self._verdicts[pattern] = is_anomalous

    def snapshot(self) -> dict[tuple[int, ...], bool]:
        """Copy of the remembered pattern -> verdict mapping.

        Used by the runtime's degraded-mode fallback to derive its
        known-pattern heuristic without touching hit/miss accounting.
        """
        return dict(self._verdicts)

    def known_anomalous_patterns(self) -> int:
        """Count of remembered patterns judged anomalous."""
        return sum(1 for v in self._verdicts.values() if v)
