"""Pre-trained domain encoder tests (the DistilBERT substitute)."""

import numpy as np

from repro.embedding.corpus import build_corpus
from repro.embedding.pretrained import load_pretrained_encoder
from repro.logs.events import CONCEPTS


class TestCorpus:
    def test_contains_all_canonicals(self):
        corpus = build_corpus(seed=0)
        for concept in CONCEPTS:
            assert concept.canonical in corpus

    def test_deterministic(self):
        assert build_corpus(seed=1) == build_corpus(seed=1)

    def test_seed_varies_paraphrases(self):
        assert build_corpus(seed=1) != build_corpus(seed=2)


class TestPretrainedEncoder:
    def test_cached_instance(self):
        a = load_pretrained_encoder(32)
        b = load_pretrained_encoder(32)
        assert a is b

    def test_default_and_explicit_dim_share_one_encoder(self):
        """However the call spells (dim, seed), one encoder is trained:
        the LOF member's default call gets the pipeline's encoder."""
        encoder = load_pretrained_encoder()
        assert load_pretrained_encoder(64) is encoder
        assert load_pretrained_encoder(dim=64, seed=0) is encoder

    def test_dim_honored(self):
        assert load_pretrained_encoder(32).dim == 32

    def test_canonical_interpretations_well_separated(self):
        """Distinct concepts' canonical sentences must not collapse: the
        anomaly classifier depends on separable event embeddings."""
        encoder = load_pretrained_encoder(64)
        canonicals = [c.canonical for c in CONCEPTS]
        matrix = encoder.encode_batch(canonicals)
        sims = matrix @ matrix.T
        off_diag = sims[~np.eye(len(sims), dtype=bool)]
        assert off_diag.mean() < 0.5

    def test_lei_geometry(self):
        """Canonical sentences must sit closer to their paraphrases than raw
        dialect phrases sit to each other — the quantitative version of the
        Table I observation."""
        encoder = load_pretrained_encoder(64)
        same_concept = float(
            encoder.encode("Network connection to a remote endpoint was interrupted.")
            @ encoder.encode("the session with the peer was dropped unexpectedly")
        )
        raw_dialects = float(
            encoder.encode("Connection refused in open_demux connect")
            @ encoder.encode("Lustre mount FAILED failed on control stream CioStream socket")
        )
        assert same_concept > raw_dialects + 0.2
