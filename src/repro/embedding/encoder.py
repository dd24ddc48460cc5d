"""Sentence encoder: SIF-weighted mean of word vectors.

Maps a sentence (an LLM interpretation, or a raw template for the
"w/o LEI" ablation) to a fixed-dimension vector.  Uses smooth inverse
frequency weighting (Arora et al., 2017) over the word-vector vocabulary;
out-of-vocabulary tokens get deterministic hash vectors so unseen system
jargon still contributes a stable (if uninformed) signal.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..obs import get_registry
from .cooccurrence import WordVectors
from .vocab import Vocabulary, tokenize

__all__ = ["SentenceEncoder"]


def _hash_vector(token: str, dim: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector for an OOV token."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    # Exactly what ``default_rng(seed)`` and ``np.linalg.norm`` compute
    # for a 1-D array, without their argument dispatch.
    rng = np.random.Generator(np.random.PCG64(seed))
    vec = rng.standard_normal(dim).astype(np.float32)
    return vec / (np.sqrt(vec.dot(vec)) + 1e-12)


class SentenceEncoder:
    """Fixed-dimension sentence embeddings from word vectors.

    A token is out of vocabulary when the word vectors have no row for
    it, which includes tokens seen in the corpus fewer than ``min_count``
    times.  Those get a hash vector, yet keep the SIF weight of their
    raw corpus count, so their weight can be below 1.  Each token's
    weighted row is cached; a sentence is the mean of its rows.

    Parameters
    ----------
    word_vectors:
        Trained :class:`WordVectors`.
    sif_a:
        SIF smoothing constant; weight of token t is ``a / (a + p(t))``.
    oov_scale:
        Magnitude of hash vectors for out-of-vocabulary tokens.
    oov_cache_size:
        Capacity of the OOV weighted-row cache.  A stream of novel tokens
        under ``repro serve`` previously grew it without bound; now the
        oldest entry is evicted (FIFO — hash vectors are cheap to rebuild,
        so recency tracking isn't worth the bookkeeping) and counted on
        ``embedding.encoder.oov_evictions``.
    """

    def __init__(self, word_vectors: WordVectors, sif_a: float = 1e-3, oov_scale: float = 0.3,
                 oov_cache_size: int = 4096):
        if oov_cache_size < 1:
            raise ValueError(f"oov_cache_size must be >= 1, got {oov_cache_size}")
        self.word_vectors = word_vectors
        self.dim = word_vectors.dim
        self.sif_a = sif_a
        self.oov_scale = oov_scale
        self.oov_cache_size = oov_cache_size
        total = sum(word_vectors.vocabulary.counts.values()) or 1
        self._probabilities = {
            token: count / total for token, count in word_vectors.vocabulary.counts.items()
        }
        self._vocab_rows: dict[str, np.ndarray] = {}
        self._oov_cache: dict[str, np.ndarray] = {}
        registry = get_registry()
        self._oov_evictions = registry.counter("embedding.encoder.oov_evictions")
        self._dedup_hits = registry.counter("embedding.encoder.batch_dedup_hits")

    def state(self) -> tuple[dict, np.ndarray]:
        """``(meta, matrix)``: the JSON-able vocabulary and scalars, and
        the float32 word-vector matrix.  :meth:`from_state` rebuilds an
        encoder that encodes every sentence to the same bytes, without
        training word vectors."""
        meta = {
            "vocabulary": self.word_vectors.vocabulary.state(),
            "sif_a": self.sif_a,
            "oov_scale": self.oov_scale,
            "oov_cache_size": self.oov_cache_size,
        }
        return meta, self.word_vectors.matrix

    @classmethod
    def from_state(cls, meta: dict, matrix: np.ndarray) -> "SentenceEncoder":
        """Rebuild an encoder from :meth:`state` output."""
        vectors = WordVectors(Vocabulary.from_state(meta["vocabulary"]), matrix)
        return cls(vectors, sif_a=meta["sif_a"], oov_scale=meta["oov_scale"],
                   oov_cache_size=meta["oov_cache_size"])

    def _token_row(self, token: str) -> np.ndarray:
        """The token's SIF-weighted vector, cached: in-vocabulary rows
        for the encoder's lifetime (bounded by the vocabulary), hash rows
        in the bounded OOV FIFO."""
        probability = self._probabilities.get(token, 0.0)
        weight = self.sif_a / (self.sif_a + probability)
        if token in self.word_vectors.vocabulary:
            row = weight * self.word_vectors.vector(token)
            self._vocab_rows[token] = row
            return row
        row = weight * (_hash_vector(token, self.dim) * self.oov_scale)
        while len(self._oov_cache) >= self.oov_cache_size:
            self._oov_cache.pop(next(iter(self._oov_cache)))
            self._oov_evictions.inc()
        self._oov_cache[token] = row
        return row

    def encode(self, sentence: str) -> np.ndarray:
        """Encode one sentence to a ``dim``-vector (zero vector if empty)."""
        tokens = tokenize(sentence)
        if not tokens:
            return np.zeros(self.dim, dtype=np.float32)
        vocab_rows = self._vocab_rows
        oov_rows = self._oov_cache
        rows = []
        for token in tokens:
            row = vocab_rows.get(token)
            if row is None:
                row = oov_rows.get(token)
                if row is None:
                    row = self._token_row(token)
            rows.append(row)
        # Summing the rows along axis 0 adds them one after another in
        # float64, the same order and precision as a running accumulator.
        accum = np.array(rows).sum(axis=0, dtype=np.float64)
        vec = (accum / len(tokens)).astype(np.float32)
        norm = np.sqrt(vec.dot(vec))
        if norm > 0:
            vec = vec / norm
        return vec

    def encode_batch(self, sentences: list[str]) -> np.ndarray:
        """Encode many sentences into an ``(n, dim)`` matrix.

        Log windows repeat a small template set, so each distinct sentence
        is encoded once and scattered to every position it occupies; the
        saved encodes are counted on ``embedding.encoder.batch_dedup_hits``.
        """
        if not sentences:
            return np.zeros((0, self.dim), dtype=np.float32)
        positions: dict[str, list[int]] = {}
        for i, sentence in enumerate(sentences):
            positions.setdefault(sentence, []).append(i)
        duplicates = len(sentences) - len(positions)
        if duplicates:
            self._dedup_hits.inc(duplicates)
        out = np.empty((len(sentences), self.dim), dtype=np.float32)
        for sentence, indices in positions.items():
            out[indices] = self.encode(sentence)
        return out
