"""Sentence encoder tests."""

import hashlib

import numpy as np
import pytest

from repro.embedding.cooccurrence import train_word_vectors
from repro.embedding.encoder import SentenceEncoder
from repro.embedding.vocab import tokenize

_CORPUS = [
    "network connection interrupted to remote endpoint",
    "network session dropped to remote peer",
    "disk write failure on storage device",
    "disk read error on storage device",
    "heartbeat confirmed component alive",
    "health check passed component responsive",
] * 10


@pytest.fixture(scope="module")
def encoder():
    return SentenceEncoder(train_word_vectors(_CORPUS, dim=16, min_count=1))


class TestEncoding:
    def test_unit_norm(self, encoder):
        vec = encoder.encode("network connection interrupted")
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-5)

    def test_empty_sentence_zero_vector(self, encoder):
        np.testing.assert_allclose(encoder.encode(""), 0.0)

    def test_deterministic(self, encoder):
        a = encoder.encode("disk write failure")
        b = encoder.encode("disk write failure")
        np.testing.assert_allclose(a, b)

    def test_batch_matches_single(self, encoder):
        sentences = ["network connection interrupted", "disk write failure"]
        batch = encoder.encode_batch(sentences)
        for row, sentence in zip(batch, sentences):
            np.testing.assert_allclose(row, encoder.encode(sentence))

    def test_empty_batch(self, encoder):
        assert encoder.encode_batch([]).shape == (0, 16)

    def test_semantic_neighbourhood(self, encoder):
        net_a = encoder.encode("network connection interrupted")
        net_b = encoder.encode("network session dropped")
        disk = encoder.encode("disk write failure")
        assert float(net_a @ net_b) > float(net_a @ disk)

    def test_oov_tokens_stable(self, encoder):
        a = encoder.encode("zorblat quux")
        b = encoder.encode("zorblat quux")
        np.testing.assert_allclose(a, b)
        assert np.linalg.norm(a) > 0  # hash vectors, not zeros

    def test_oov_distinct_tokens_distinct_vectors(self, encoder):
        a = encoder.encode("zorblat")
        b = encoder.encode("vexmor")
        assert not np.allclose(a, b)


def _reference_hash_vector(token, dim):
    """The hash vector as first written: ``default_rng`` and
    ``np.linalg.norm``."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim).astype(np.float32)
    return vec / (np.linalg.norm(vec) + 1e-12)


def _reference_encode(encoder, sentence, hash_rows):
    """The per-token accumulator loop the encoder replaced."""
    tokens = tokenize(sentence)
    if not tokens:
        return np.zeros(encoder.dim, dtype=np.float32)
    vocabulary = encoder.word_vectors.vocabulary
    total = sum(vocabulary.counts.values()) or 1
    accum = np.zeros(encoder.dim, dtype=np.float64)
    for token in tokens:
        probability = vocabulary.counts.get(token, 0) / total
        weight = encoder.sif_a / (encoder.sif_a + probability)
        if token in vocabulary:
            token_vec = encoder.word_vectors.vector(token)
        else:
            token_vec = hash_rows.get(token)
            if token_vec is None:
                token_vec = _reference_hash_vector(token, encoder.dim) * encoder.oov_scale
                hash_rows[token] = token_vec
        accum += weight * token_vec
    vec = (accum / len(tokens)).astype(np.float32)
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec = vec / norm
    return vec


class TestMatchesPerTokenLoop:
    """The cached-row encoder is byte-identical to the per-token loop."""

    @pytest.fixture(scope="class")
    def word_vectors(self):
        from repro.embedding import load_pretrained_encoder

        return load_pretrained_encoder().word_vectors

    @pytest.fixture(scope="class")
    def messages(self):
        from repro.logs.events import SYSTEM_NAMES
        from repro.logs.generator import generate_logs

        return [record.message for system in SYSTEM_NAMES
                for record in generate_logs(system, 3400, seed=5)]

    def test_generator_messages_from_every_system(self, word_vectors, messages):
        assert len(messages) >= 20_000
        encoder = SentenceEncoder(word_vectors)
        hash_rows = {}
        mismatched = [message for message in messages
                      if encoder.encode(message).tobytes()
                      != _reference_encode(encoder, message, hash_rows).tobytes()]
        assert mismatched == []

    def test_edge_sentences_and_evicted_rows(self, word_vectors, messages):
        vocabulary = word_vectors.vocabulary
        # Below min_count: hash-vectored, yet SIF-weighted by its count.
        assert "pause" not in vocabulary and vocabulary.counts["pause"] >= 1
        encoder = SentenceEncoder(word_vectors, oov_cache_size=8)
        hash_rows = {}
        sentences = ["", "--- :: ...", "pause", "pause pause node 17 pause",
                     "zorblat", *messages[::500]] * 2
        for sentence in sentences:
            assert (encoder.encode(sentence).tobytes()
                    == _reference_encode(encoder, sentence, hash_rows).tobytes())
        assert len(encoder._oov_cache) <= 8
