"""SystemFeaturizer tests: parsing -> LEI -> embedding."""

import numpy as np

from repro.core.features import SystemFeaturizer
from repro.embedding.pretrained import load_pretrained_encoder
from repro.llm.simulated import SimulatedLLM
from repro.logs import build_dataset, generate_logs, sliding_windows


def _featurizer(system="bgl", use_lei=True):
    encoder = load_pretrained_encoder(64)
    llm = SimulatedLLM() if use_lei else None
    return SystemFeaturizer(system, encoder, llm=llm)


class TestMessageEmbedding:
    def test_same_event_same_embedding(self):
        featurizer = _featurizer()
        a = featurizer.embed_message("MMCS heartbeat from node 17 acknowledged")
        b = featurizer.embed_message("MMCS heartbeat from node 99 acknowledged")
        np.testing.assert_allclose(a, b)

    def test_embedding_dim(self):
        featurizer = _featurizer()
        assert featurizer.embed_message("test message body").shape == (64,)

    def test_interpretation_cached_per_event(self):
        llm = SimulatedLLM()
        featurizer = SystemFeaturizer("bgl", load_pretrained_encoder(64), llm=llm)
        for node in range(20):
            featurizer.embed_message(f"MMCS heartbeat from node {node} acknowledged")
        assert llm.call_count == 1
        assert featurizer.num_events == 1

    def test_without_lei_uses_template_text(self):
        featurizer = _featurizer(use_lei=False)
        featurizer.embed_message("MMCS heartbeat from node 17 acknowledged")
        event_id = featurizer.store.event_ids[0]
        assert "heartbeat" in featurizer.interpretation_of(event_id)
        assert "MMCS" in featurizer.interpretation_of(event_id)

    def test_lei_interpretation_is_canonical(self):
        featurizer = _featurizer(use_lei=True)
        event_id, masked = featurizer.event_id_of(
            "MMCS heartbeat from node 17 acknowledged")
        assert masked == "MMCS heartbeat from node <*> acknowledged"
        assert featurizer.interpretation_of(event_id) == (
            "A periodic heartbeat confirmed the component is alive."
        )


class TestSequenceEmbedding:
    def test_shapes(self):
        featurizer = _featurizer()
        sequences = sliding_windows(generate_logs("bgl", 60, seed=0))
        out = featurizer.embed_sequences(sequences)
        assert out.shape == (len(sequences), 10, 64)

    def test_empty(self):
        featurizer = _featurizer()
        assert featurizer.embed_sequences([]).shape[0] == 0

    def test_cross_system_lei_alignment(self):
        """The point of LEI: the same concept on two systems must embed to
        (nearly) the same vector; raw templates must not."""
        encoder = load_pretrained_encoder(64)
        spirit_msg = "Connection refused (111) in open_demux, open_demux: connect 10.1.1.1:33404"
        system_c_msg = "Port down reason Interface 7 is down, due to Los"

        with_lei_spirit = SystemFeaturizer("spirit", encoder, llm=SimulatedLLM())
        with_lei_c = SystemFeaturizer("system_c", encoder, llm=SimulatedLLM())
        sim_lei = float(
            with_lei_spirit.embed_message(spirit_msg) @ with_lei_c.embed_message(system_c_msg)
        )

        raw_spirit = SystemFeaturizer("spirit", encoder, llm=None)
        raw_c = SystemFeaturizer("system_c", encoder, llm=None)
        sim_raw = float(
            raw_spirit.embed_message(spirit_msg) @ raw_c.embed_message(system_c_msg)
        )
        assert sim_lei > 0.95  # identical canonical sentence
        assert sim_raw < sim_lei - 0.3

    def test_embed_messages_flat(self):
        featurizer = _featurizer()
        out = featurizer.embed_messages(["a b c", "d e f"])
        assert out.shape == (2, 64)
        assert featurizer.embed_messages([]).shape == (0, 64)
