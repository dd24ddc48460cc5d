"""Shared infrastructure for the nine baseline detectors (§IV-A2).

Every baseline implements :class:`BaselineDetector`: ``fit`` receives the
same experiment data LogSynergy does (labeled source-system sequences plus
the small labeled target slice) and uses whatever subset its paradigm
allows — unsupervised methods use only normal target samples, single-system
supervised methods ignore the sources, and so on.  ``predict`` scores
target-system test sequences.

Baselines represent log text *without* LEI: raw messages or Drain
templates embedded with the same sentence encoder LogSynergy uses.  This
keeps the comparison about the method rather than the encoder, and
reproduces the paper's point that raw cross-system syntax does not
transfer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..embedding.encoder import SentenceEncoder
from ..embedding.pretrained import load_pretrained_encoder
from ..logs.sequences import LogSequence
from ..nn.module import Module
from ..parsing.template_store import TemplateStore

__all__ = ["BaselineDetector", "RawSequenceFeaturizer", "EventIdFeaturizer"]


class RawSequenceFeaturizer:
    """Embeds sequences from raw template text (no LLM interpretation)."""

    def __init__(self, encoder: SentenceEncoder | None = None, use_parsing: bool = True):
        self.encoder = encoder or load_pretrained_encoder()
        self.use_parsing = use_parsing
        self._stores: dict[str, TemplateStore] = {}
        self._cache: dict[tuple[str, int], np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self.encoder.dim

    def _store(self, system: str) -> TemplateStore:
        store = self._stores.get(system)
        if store is None:
            store = TemplateStore()
            self._stores[system] = store
        return store

    def embed_message(self, system: str, message: str) -> np.ndarray:
        if not self.use_parsing:
            # NeuralLog-style: embed the raw message without parsing.
            return self.encoder.encode(message)
        parsed = self._store(system).ingest(message)
        key = (system, parsed.event_id)
        vec = self._cache.get(key)
        if vec is None:
            vec = self.encoder.encode(parsed.template_text)
            self._cache[key] = vec
        return vec

    def embed_sequences(self, system: str, sequences: list[LogSequence]) -> np.ndarray:
        if not sequences:
            return np.zeros((0, 0, self.dim), dtype=np.float32)
        window = len(sequences[0])
        out = np.zeros((len(sequences), window, self.dim), dtype=np.float32)
        record_cache: dict[int, np.ndarray] = {}
        for row, sequence in enumerate(sequences):
            for col, record in enumerate(sequence.records):
                vec = record_cache.get(id(record))
                if vec is None:
                    vec = self.embed_message(system, record.message)
                    record_cache[id(record)] = vec
                out[row, col] = vec
        return out


class EventIdFeaturizer:
    """Maps sequences to integer event-id arrays (DeepLog-family input)."""

    def __init__(self):
        self._stores: dict[str, TemplateStore] = {}

    def _store(self, system: str) -> TemplateStore:
        store = self._stores.get(system)
        if store is None:
            store = TemplateStore()
            self._stores[system] = store
        return store

    def vocabulary_size(self, system: str) -> int:
        return self._store(system).parser.num_templates()

    def encode_sequences(self, system: str, sequences: list[LogSequence]) -> np.ndarray:
        store = self._store(system)
        out = np.zeros((len(sequences), len(sequences[0]) if sequences else 0), dtype=np.int64)
        cache: dict[int, int] = {}
        for row, sequence in enumerate(sequences):
            for col, record in enumerate(sequence.records):
                event = cache.get(id(record))
                if event is None:
                    event = store.ingest_id(record.message)[0]
                    cache[id(record)] = event
                out[row, col] = event
        return out


class BaselineDetector(ABC):
    """Interface every comparison method implements."""

    #: Human-readable method name as it appears in Tables IV/V.
    name: str = "baseline"
    #: Paradigm row from Table IV ("Unsupervised", "Supervised Cross-System", ...).
    paradigm: str = ""

    @abstractmethod
    def fit(self, sources: dict[str, list[LogSequence]], target_system: str,
            target_train: list[LogSequence]) -> "BaselineDetector":
        """Train using whatever subset of the data the paradigm allows."""

    @abstractmethod
    def predict(self, sequences: list[LogSequence]) -> np.ndarray:
        """Binary anomaly predictions for target-system test sequences."""

    def modules(self) -> dict[str, Module]:
        """All ``nn.Module`` objects this detector owns (post-``fit``).

        Scans instance attributes, including one level of list/tuple/dict
        containers; used by the model auditor (``repro audit``) to find
        the networks behind each detector.
        """
        found: dict[str, Module] = {}
        for name, value in vars(self).items():
            if isinstance(value, Module):
                found[name] = value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        found[f"{name}[{index}]"] = item
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Module):
                        found[f"{name}[{key!r}]"] = item
        return found

    # Convenience shared by most subclasses -----------------------------
    @staticmethod
    def _labels(sequences: list[LogSequence]) -> np.ndarray:
        return np.array([s.label for s in sequences], dtype=np.int64)

    @staticmethod
    def _normal_only(sequences: list[LogSequence]) -> list[LogSequence]:
        return [s for s in sequences if s.label == 0]

    @staticmethod
    def _anomalous_only(sequences: list[LogSequence]) -> list[LogSequence]:
        return [s for s in sequences if s.label == 1]
