"""Full-pipeline persistence tests (weights + parser trees + interpretations)."""

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

    def test_save_requires_fitted(self, tmp_path):
        from repro.config import LogSynergyConfig
        with pytest.raises(RuntimeError):
            LogSynergy(LogSynergyConfig()).save_pipeline(str(tmp_path / "nope"))
