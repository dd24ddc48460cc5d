"""Event representation pipeline: parsing -> LEI -> event embedding (§III-B/C).

For each system, a :class:`SystemFeaturizer` owns a Drain template store,
interpretations for every mined event (via LEI, or the raw template text
for the "w/o LEI" ablation), and the event-embedding table.  Unseen events
arriving online are parsed, interpreted and embedded on the fly, exactly
as §III-E describes.
"""

from __future__ import annotations

import numpy as np

from ..embedding.encoder import SentenceEncoder
from ..llm.providers import LLMProvider
from ..llm.interpreter import EventInterpreter
from ..logs.sequences import LogSequence
from ..parsing.template_store import TemplateStore

__all__ = ["SystemFeaturizer"]


class SystemFeaturizer:
    """Maps one system's log messages to event embeddings.

    Parameters
    ----------
    system:
        System name (used in LEI prompts for system context).
    encoder:
        Sentence encoder shared across systems (the unified feature space).
    llm:
        LLM provider for LEI; ``None`` disables interpretation and embeds
        the raw Drain template text instead ("LogSynergy w/o LEI").
    """

    def __init__(self, system: str, encoder: SentenceEncoder,
                 llm: LLMProvider | None = None):
        self.system = system
        self.encoder = encoder
        self.store = TemplateStore()
        self.interpreter = EventInterpreter(llm) if llm is not None else None
        self._interpretations: dict[int, str] = {}
        self._embeddings: dict[int, np.ndarray] = {}

    @property
    def embedding_dim(self) -> int:
        """Dimension of the event embeddings."""
        return self.encoder.dim

    @property
    def num_events(self) -> int:
        """Number of distinct events embedded so far."""
        return len(self._embeddings)

    def interpretation_of(self, event_id: int) -> str:
        """Cached interpretation text for an event id."""
        return self._interpretations[event_id]

    # ------------------------------------------------------------------
    def _text_for_event(self, event_id: int) -> str:
        if self.interpreter is None:
            return self.store.template_text(event_id)
        text, _ = self.interpreter.interpret_event(
            self.system, self.store.representative(event_id)
        )
        return text

    def _ensure_event(self, event_id: int) -> np.ndarray:
        embedding = self._embeddings.get(event_id)
        if embedding is None:
            self.interpret_events([event_id])
            embedding = self.encoder.encode(self._interpretations[event_id])
            self._embeddings[event_id] = embedding
        return embedding

    # ------------------------------------------------------------------
    # Phased API: parse -> interpret -> embed.  The offline pipeline runs
    # each phase over all sequences so it can report per-stage spans; the
    # per-message helpers below compose the same phases, so both paths
    # produce identical caches.
    # ------------------------------------------------------------------
    def parse_sequences(self, sequences: list[LogSequence]) -> list[list[int]]:
        """Phase 1 — Drain-parse sequences into an event-id grid.

        Messages stream in sequence order (same prefix behaviour as the
        per-message path); shared records across overlapping windows are
        parsed once.  For the "w/o LEI" ablation the template text is
        snapshotted at first encounter, before later messages generalize
        the template — matching what interleaved parsing embeds.
        """
        if not sequences:
            return []
        window = len(sequences[0])
        grid: list[list[int]] = []
        cache: dict[int, int] = {}
        for row, sequence in enumerate(sequences):
            if len(sequence) != window:
                raise ValueError(
                    f"sequence {row} has length {len(sequence)}, expected {window}"
                )
            ids: list[int] = []
            for record in sequence.records:
                key = id(record)
                event_id = cache.get(key)
                if event_id is None:
                    event_id = self.store.ingest_id(record.message)[0]
                    if self.interpreter is None and event_id not in self._interpretations:
                        # Snapshot now: the template may generalize later.
                        self._interpretations[event_id] = self.store.template_text(event_id)
                    cache[key] = event_id
                ids.append(event_id)
            grid.append(ids)
        return grid

    def interpret_events(self, event_ids: list[int] | None = None) -> int:
        """Phase 2 — ensure an interpretation for each event (LEI, §III-C).

        Returns the number of events interpreted in this call.  With the
        LLM disabled this falls back to the (already snapshotted) raw
        template text.
        """
        pending = [
            event_id
            for event_id in (self.store.event_ids if event_ids is None else event_ids)
            if event_id not in self._interpretations
        ]
        for event_id in pending:
            self._interpretations[event_id] = self._text_for_event(event_id)
        return len(pending)

    def embed_events(self, event_ids: list[int] | None = None) -> int:
        """Phase 3 — encode interpretations into the embedding table."""
        pending = [
            event_id
            for event_id in (self.store.event_ids if event_ids is None else event_ids)
            if event_id not in self._embeddings
        ]
        for event_id in pending:
            self._embeddings[event_id] = self.encoder.encode(
                self._interpretations[event_id]
            )
        return len(pending)

    def gather(self, grid: list[list[int]]) -> np.ndarray:
        """Assemble an event-id grid into ``(n, window, dim)`` embeddings."""
        if not grid:
            return np.zeros((0, 0, self.embedding_dim), dtype=np.float32)
        window = len(grid[0])
        out = np.zeros((len(grid), window, self.embedding_dim), dtype=np.float32)
        for row, ids in enumerate(grid):
            for col, event_id in enumerate(ids):
                out[row, col] = self._embeddings[event_id]
        return out

    def embed_message(self, message: str) -> np.ndarray:
        """Parse one message and return its event embedding."""
        return self._ensure_event(self.store.ingest_id(message)[0])

    def event_id_of(self, message: str) -> tuple[int, str | None]:
        """Parse one message and return its event id (embedding cached)
        and the parser's masked text of it (``None`` when the parser does
        not mask)."""
        event_id, masked = self.store.ingest_id(message)
        self._ensure_event(event_id)
        return event_id, masked

    # ------------------------------------------------------------------
    def embed_sequences(self, sequences: list[LogSequence]) -> np.ndarray:
        """Embed sequences into ``(n, window, dim)``.

        Message parsing is streamed in sequence order so Drain sees the
        same prefix behaviour as the offline pipeline.  Composes the
        phased API (parse -> interpret -> embed -> gather).
        """
        grid = self.parse_sequences(sequences)
        if not grid:
            return np.zeros((0, 0, self.embedding_dim), dtype=np.float32)
        distinct = sorted({event_id for ids in grid for event_id in ids})
        self.interpret_events(distinct)
        self.embed_events(distinct)
        return self.gather(grid)

    def embed_messages(self, messages: list[str]) -> np.ndarray:
        """Embed a flat window of messages into ``(len(messages), dim)``."""
        return np.stack([self.embed_message(m) for m in messages]) if messages else (
            np.zeros((0, self.embedding_dim), dtype=np.float32)
        )

    # ------------------------------------------------------------------
    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Serializable state: (JSON-able metadata, embedding arrays).

        The Drain tree, representatives and interpretations go to JSON;
        the per-event embeddings go to an npz-style mapping keyed by
        event id.
        """
        meta = {
            "system": self.system,
            "store": self.store.to_dict(),
            "interpretations": {str(k): v for k, v in self._interpretations.items()},
        }
        arrays = {str(k): v for k, v in self._embeddings.items()}
        return meta, arrays

    @classmethod
    def from_state(cls, meta: dict, arrays: dict[str, np.ndarray],
                   encoder: SentenceEncoder, llm: LLMProvider | None) -> "SystemFeaturizer":
        """Rebuild a featurizer from :meth:`state` output."""
        featurizer = cls(meta["system"], encoder, llm=llm)
        featurizer.store = TemplateStore.from_dict(meta["store"])
        featurizer._interpretations = {
            int(k): v for k, v in meta["interpretations"].items()
        }
        featurizer._embeddings = {
            int(k): np.asarray(v, dtype=np.float32) for k, v in arrays.items()
        }
        return featurizer
