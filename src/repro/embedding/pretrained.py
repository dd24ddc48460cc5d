"""The "pre-trained model" used for event embedding (§III-C).

The paper embeds interpretations with DistilBERT; here the equivalent is a
PPMI-SVD :class:`SentenceEncoder` trained once on the built-in ops-domain
corpus and cached per (dim, seed).  The paper notes the choice of
pre-trained model is not a contribution — what matters is that
semantically similar interpretations land nearby, which this encoder
provides (validated in the test suite).

Only a fit, or a detector without a fitted pipeline, calls the loader.
A fitted pipeline saves the encoder it was fitted with
(:meth:`SentenceEncoder.state`) in its model directory and carries it
when pickled into a shard process, so loading a model or starting a
shard process restores that encoder and trains nothing.
"""

from __future__ import annotations

from functools import lru_cache

from .cooccurrence import train_word_vectors
from .corpus import build_corpus
from .encoder import SentenceEncoder

__all__ = ["load_pretrained_encoder", "DEFAULT_EMBEDDING_DIM"]

DEFAULT_EMBEDDING_DIM = 64


def load_pretrained_encoder(dim: int = DEFAULT_EMBEDDING_DIM, seed: int = 0) -> SentenceEncoder:
    """Train (or return the cached) domain sentence encoder.

    One encoder per ``(dim, seed)`` however the call spells them:
    ``load_pretrained_encoder()`` and ``load_pretrained_encoder(64)``
    return the same object (and share its OOV cache).
    """
    return _trained_encoder(int(dim), int(seed))


@lru_cache(maxsize=4)
def _trained_encoder(dim: int, seed: int) -> SentenceEncoder:
    corpus = build_corpus(seed=seed)
    vectors = train_word_vectors(corpus, dim=dim, window=4, min_count=2)
    return SentenceEncoder(vectors)


# Drops every cached encoder (a cold start, as in a fresh process).
load_pretrained_encoder.cache_clear = _trained_encoder.cache_clear
