"""Full-pipeline persistence tests (weights + parser trees + interpretations)."""

import pickle

import numpy as np
import pytest

from repro.core import LogSynergy


class TestPipelinePersistence:
    def test_roundtrip_predictions_identical(self, fitted_logsynergy,
                                             tiny_experiment_data, tmp_path):
        test = tiny_experiment_data["target_test"][:80]
        expected = fitted_logsynergy.predict_proba(test)

        directory = str(tmp_path / "pipeline")
        fitted_logsynergy.save_pipeline(directory)
        restored = LogSynergy.load_pipeline(directory)

        np.testing.assert_allclose(restored.predict_proba(test), expected, atol=1e-5)

    def test_restored_event_ids_stable(self, fitted_logsynergy, tmp_path):
        directory = str(tmp_path / "pipeline")
        fitted_logsynergy.save_pipeline(directory)
        restored = LogSynergy.load_pipeline(directory)

        original = fitted_logsynergy._featurizer("thunderbird")
        clone = restored._featurizer("thunderbird")
        message = "heartbeat: tbird-042 alive, seq 99"
        assert clone.event_id_of(message) == original.event_id_of(message)

    def test_restored_interpretations_survive_without_llm_calls(
            self, fitted_logsynergy, tmp_path):
        directory = str(tmp_path / "pipeline")
        fitted_logsynergy.save_pipeline(directory)

        class ExplodingLLM:
            def complete(self, prompt):
                raise AssertionError("known events must not hit the LLM")

        restored = LogSynergy.load_pipeline(directory, llm=ExplodingLLM())
        featurizer = restored._featurizer("thunderbird")
        known = featurizer.store.event_ids[0]
        representative = featurizer.store.representative(known)
        # Re-embedding a known message must come from the cache.
        featurizer.embed_message(representative)

    def test_online_detection_after_restore(self, fitted_logsynergy, tmp_path):
        directory = str(tmp_path / "pipeline")
        fitted_logsynergy.save_pipeline(directory)
        restored = LogSynergy.load_pipeline(directory)
        report = restored.detect_stream(["heartbeat: tbird-7 alive, seq 1"] * 10)
        assert report.system == "thunderbird"
        assert 0.0 <= report.score <= 1.0

    def test_restored_model_is_in_eval_mode(self, fitted_logsynergy,
                                            tiny_experiment_data, tmp_path):
        """A loaded pipeline, like a fitted one, only scores and explains:
        dropout stays off, so two explanations of one window agree."""
        from repro.core.explain import nearest_training_sequences

        directory = str(tmp_path / "pipeline")
        fitted_logsynergy.save_pipeline(directory)
        restored = LogSynergy.load_pipeline(directory)
        assert not any(module.training
                       for _name, module in restored.model.named_modules())

        featurizer = restored._featurizer("thunderbird")
        bank = featurizer.embed_sequences(tiny_experiment_data["target_test"][:60])
        first = nearest_training_sequences(restored.model, bank[0], bank, k=3)
        second = nearest_training_sequences(restored.model, bank[0], bank, k=3)
        assert first == second

    def test_a_pickled_pipeline_scores_identically(self, fitted_logsynergy):
        """A shard process scores through a pickled copy of the pipeline."""
        from repro.logs import generate_logs

        replica = pickle.loads(pickle.dumps(fitted_logsynergy))
        assert replica.target_system == fitted_logsynergy.target_system
        original_state = fitted_logsynergy.model.state_dict()
        for key, value in replica.model.state_dict().items():
            np.testing.assert_array_equal(value, original_state[key])
        window = [record.message
                  for record in generate_logs("thunderbird", 10, seed=11)]
        expected = fitted_logsynergy.detect_stream_batch([window])
        got = replica.detect_stream_batch([window])
        assert got[0].score == expected[0].score
        assert got[0].is_anomalous == expected[0].is_anomalous

    def test_save_requires_fitted(self, tmp_path):
        from repro.config import LogSynergyConfig
        with pytest.raises(RuntimeError):
            LogSynergy(LogSynergyConfig()).save_pipeline(str(tmp_path / "nope"))


# Sentences whose tokens the default word vectors have never seen, so they
# encode through the encoder's OOV hash rows, scaled by ``oov_scale``.
OOV_SENTENCES = [
    "zorblax quux frobnicator wedged on blade 7",
    "the grommet reticulated twice",
    "plinth xyzzy",
]
# Target-system lines the fit never saw: each is a new event, interpreted
# and embedded through the pipeline's encoder when first parsed.
UNSEEN_WINDOWS = [
    ["zorblax quux frobnicator wedged on blade 7"] * 5
    + ["heartbeat: tbird-042 alive, seq 99"] * 5,
    ["the grommet reticulated twice on tbird-9"] * 10,
]


@pytest.fixture(scope="module")
def custom_encoder_pipeline(tiny_experiment_data):
    """A small pipeline fitted with a non-default sentence encoder."""
    from repro.embedding import SentenceEncoder, load_pretrained_encoder

    from ..conftest import TINY_CONFIG

    encoder = SentenceEncoder(load_pretrained_encoder().word_vectors,
                              sif_a=1e-2, oov_scale=0.5)
    pipeline = LogSynergy(TINY_CONFIG.with_overrides(epochs=1), encoder=encoder)
    sources = {name: sequences[:150]
               for name, sequences in tiny_experiment_data["sources"].items()}
    pipeline.fit(sources, tiny_experiment_data["target"],
                 tiny_experiment_data["target_train"][:40])
    return pipeline


def score_unseen(pipeline):
    grid = [[pipeline.event_id_of("thunderbird", message)[0] for message in window]
            for window in UNSEEN_WINDOWS]
    reports = pipeline.score_event_windows("thunderbird", grid, UNSEEN_WINDOWS)
    return grid, [report.score for report in reports]


class TestEncoderPersistence:
    def _restarts(self, pipeline, directory):
        """The pipeline rebuilt through a model directory and through a
        pickle round trip (what a shard process loads)."""
        pipeline.save_pipeline(directory)
        loaded = LogSynergy.load_pipeline(directory)
        replica = pickle.loads(pickle.dumps(pipeline))
        return loaded, replica

    def test_the_fitted_encoder_survives_a_restart(self, custom_encoder_pipeline,
                                                   tmp_path):
        fitted = custom_encoder_pipeline
        loaded, replica = self._restarts(fitted, str(tmp_path / "pipeline"))
        expected = [fitted.encoder.encode(s).tobytes() for s in OOV_SENTENCES]
        for restored in (loaded, replica):
            assert restored.encoder is not fitted.encoder
            assert restored.encoder.sif_a == 1e-2
            assert restored.encoder.oov_scale == 0.5
            assert [restored.encoder.encode(s).tobytes()
                    for s in OOV_SENTENCES] == expected
        # Each restart parses the unseen lines from the saved state, so
        # all three assign the same new event ids and scores.
        grid, scores = score_unseen(loaded)
        assert score_unseen(replica) == (grid, scores)
        assert score_unseen(fitted) == (grid, scores)

    def test_encoder_state_keeps_the_full_vocabulary(self, custom_encoder_pipeline):
        from repro.embedding import SentenceEncoder

        encoder = custom_encoder_pipeline.encoder
        meta, matrix = encoder.state()
        restored = SentenceEncoder.from_state(meta, matrix)
        vocabulary = restored.word_vectors.vocabulary
        original = encoder.word_vectors.vocabulary
        assert vocabulary.tokens == original.tokens
        # Tokens below min_count have no row but keep their SIF weight.
        assert dict(vocabulary.counts) == dict(original.counts)
        assert len(vocabulary.counts) > len(vocabulary.tokens) - 1
        assert (vocabulary.min_count, vocabulary.max_size) == (
            original.min_count, original.max_size)
        assert restored.word_vectors.matrix.dtype == np.float32
        assert restored.word_vectors.matrix.tobytes() == matrix.tobytes()
        assert restored.oov_cache_size == encoder.oov_cache_size

    def test_an_explicit_encoder_wins(self, custom_encoder_pipeline, tmp_path):
        from repro.embedding import load_pretrained_encoder

        directory = str(tmp_path / "pipeline")
        custom_encoder_pipeline.save_pipeline(directory)
        default = load_pretrained_encoder()
        restored = LogSynergy.load_pipeline(directory, encoder=default)
        assert restored.encoder is default
        assert all(featurizer.encoder is default
                   for featurizer in restored._featurizers.values())

    def test_a_directory_without_an_encoder_loads_the_default(
            self, custom_encoder_pipeline, tmp_path):
        """Directories saved before encoders were persisted still load."""
        import json
        import os

        from repro.embedding import load_pretrained_encoder

        directory = tmp_path / "pipeline"
        custom_encoder_pipeline.save_pipeline(str(directory))
        os.remove(directory / "encoder.npz")
        manifest = json.loads((directory / "pipeline.json").read_text())
        del manifest["encoder"]
        (directory / "pipeline.json").write_text(json.dumps(manifest))
        restored = LogSynergy.load_pipeline(str(directory))
        assert restored.encoder is load_pretrained_encoder()
