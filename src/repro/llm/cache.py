"""Persistent interpretation cache.

Production deployments interpret each template once and reuse the result
across retrains and restarts (LLM calls cost money and minutes; §VI-B2).
``CachedLLM`` wraps any :class:`LLMProvider` with a JSON-file-backed cache
keyed by the prompt, so repeated pipelines hit the LLM only for genuinely
new templates.

Use it as a context manager for bulk runs so nothing leaks on error::

    with CachedLLM(SimulatedLLM(), "cache.json", autosave=False) as llm:
        model = LogSynergy(config, llm=llm)
        model.fit(sources, target, target_train)
    # cache saved on exit, even if fit raised
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Callable

from ..obs import get_registry
from ..testing.faultpoints import fault_point
from .providers import LLMProvider

__all__ = ["CachedLLM"]


def _key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class CachedLLM(LLMProvider):
    """File-backed memoization wrapper around an LLM provider.

    Parameters
    ----------
    inner:
        The real client (simulated or hosted).
    path:
        JSON cache file; created on first save, loaded if present.
    autosave:
        Persist after every new completion (safe default); set ``False``
        and use the context-manager form (or call :meth:`save`) for bulk
        runs.
    quarantine:
        On a malformed/truncated cache file (torn write, disk fault),
        rename it aside as ``<name>.corrupt-<ts>`` and start from an
        empty cache — entries regenerate on demand.  Set ``False`` to
        get the old fail-stop ``ValueError`` (forensics workflows).
    clock:
        Timestamp source for quarantine filenames (injectable for
        deterministic tests).

    Hit/miss/invalidation totals are mirrored into the active
    ``repro.obs`` registry as ``llm.cache.hits`` / ``llm.cache.misses``
    / ``llm.cache.invalidated``; each quarantined file increments
    ``llm.cache.quarantined``, live entry counts track in the
    ``llm.cache.entries`` and ``llm.cache.regenerated_live`` gauges.
    """

    def __init__(self, inner: LLMProvider, path: str | Path, autosave: bool = True,
                 *, quarantine: bool = True,
                 clock: Callable[[], float] = time.time):
        self.inner = inner
        self.path = Path(path)
        self.autosave = autosave
        self.quarantine = quarantine
        self.hits = 0
        self.misses = 0
        self._clock = clock
        registry = get_registry()
        self._hit_counter = registry.counter("llm.cache.hits")
        self._miss_counter = registry.counter("llm.cache.misses")
        self._invalidated_counter = registry.counter("llm.cache.invalidated")
        self._quarantine_counter = registry.counter("llm.cache.quarantined")
        self._entries_gauge = registry.gauge("llm.cache.entries")
        self._regenerated_gauge = registry.gauge("llm.cache.regenerated_live")
        # Keys stored after a quarantine event (regenerated on demand);
        # tracked so invalidation keeps the regenerated-live gauge honest.
        self._regenerated: set[str] = set()
        self._was_quarantined = False
        self._cache: dict[str, str] = {}
        if self.path.exists():
            self._cache = self.load()
        self._entries_gauge.set(len(self._cache))

    def load(self) -> dict[str, str]:
        """Parse the cache file, quarantining it when corrupt.

        Returns the cached completions; a malformed or truncated file is
        renamed aside (``quarantine=True``) and an empty cache returned,
        or raises ``ValueError`` (``quarantine=False``).
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"unreadable interpretation cache at {self.path}") from exc
        text = fault_point("llm.cache.load", text)
        try:
            cache = json.loads(text)
        except json.JSONDecodeError:
            cache = None
        if isinstance(cache, dict):
            return cache
        if not self.quarantine:
            raise ValueError(f"corrupt interpretation cache at {self.path}")
        self.path.rename(self._quarantine_target())
        self._quarantine_counter.inc()
        self._was_quarantined = True
        return {}

    def _quarantine_target(self) -> Path:
        stamp = int(self._clock())
        candidate = self.path.with_name(f"{self.path.name}.corrupt-{stamp}")
        serial = 0
        while candidate.exists():
            serial += 1
            candidate = self.path.with_name(
                f"{self.path.name}.corrupt-{stamp}-{serial}")
        return candidate

    def __len__(self) -> int:
        return len(self._cache)

    # -- context manager: always persist, even on exceptions -------------
    def __enter__(self) -> "CachedLLM":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.save()
        return False

    def complete(self, prompt: str) -> str:
        """Return the completion, from cache when available."""
        key = _key(prompt)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._hit_counter.inc()
            return cached
        self.misses += 1
        self._miss_counter.inc()
        completion = self.inner.complete(prompt)
        self._cache[key] = completion
        self._entries_gauge.add(1)
        if self._was_quarantined:
            self._regenerated.add(key)
            self._regenerated_gauge.add(1)
        if self.autosave:
            self.save()
        return completion

    def invalidate(self, prompt: str) -> bool:
        """Drop one cached completion (e.g. after a failed operator review).

        Emits ``llm.cache.invalidated`` and keeps the entry gauges honest —
        including for entries regenerated after a quarantine, which
        previously stayed counted as live after being dropped.
        """
        key = _key(prompt)
        removed = self._cache.pop(key, None) is not None
        if removed:
            self._invalidated_counter.inc()
            self._entries_gauge.add(-1)
            if key in self._regenerated:
                self._regenerated.discard(key)
                self._regenerated_gauge.add(-1)
            if self.autosave:
                self.save()
        return removed

    def save(self) -> None:
        """Persist state to disk."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self._cache, indent=0), encoding="utf-8")
