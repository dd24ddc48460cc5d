"""End-to-end LogSynergy facade tests (uses the session-scoped fitted model)."""

import numpy as np
import pytest

from repro.config import LogSynergyConfig
from repro.core import LogSynergy
from repro.evaluation.metrics import binary_metrics


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LogSynergy(LogSynergyConfig()).predict([])

    def test_target_in_sources_rejected(self, tiny_experiment_data):
        model = LogSynergy(LogSynergyConfig())
        with pytest.raises(ValueError):
            model.fit(
                tiny_experiment_data["sources"],
                next(iter(tiny_experiment_data["sources"])),
                tiny_experiment_data["target_train"],
            )

    def test_empty_target_rejected(self, tiny_experiment_data):
        model = LogSynergy(LogSynergyConfig())
        with pytest.raises(ValueError):
            model.fit(tiny_experiment_data["sources"], "thunderbird", [])

    def test_encoder_dim_mismatch_rejected(self):
        from repro.embedding.pretrained import load_pretrained_encoder
        with pytest.raises(ValueError):
            LogSynergy(
                LogSynergyConfig(embedding_dim=32),
                encoder=load_pretrained_encoder(64),
            )


class TestFittedModel:
    def test_training_history_recorded(self, fitted_logsynergy):
        assert fitted_logsynergy.history is not None
        from ..conftest import TINY_CONFIG
        assert len(fitted_logsynergy.history.total) == TINY_CONFIG.epochs

    def test_predictions_binary(self, fitted_logsynergy, tiny_experiment_data):
        preds = fitted_logsynergy.predict(tiny_experiment_data["target_test"][:50])
        assert set(np.unique(preds)) <= {0, 1}

    def test_probabilities_in_unit_interval(self, fitted_logsynergy, tiny_experiment_data):
        probs = fitted_logsynergy.predict_proba(tiny_experiment_data["target_test"][:50])
        assert np.all((probs >= 0) & (probs <= 1))

    def test_detects_anomalies_well(self, fitted_logsynergy, tiny_experiment_data):
        """The headline property: high F1 on the unseen tail of the target
        system with only a small labeled slice."""
        test = tiny_experiment_data["target_test"]
        preds = fitted_logsynergy.predict(test)
        metrics = binary_metrics([s.label for s in test], preds)
        assert metrics.f1 > 0.6

    def test_system_index_contains_all(self, fitted_logsynergy):
        assert set(fitted_logsynergy._system_index) == {"bgl", "spirit", "thunderbird"}

    def test_detect_stream_report(self, fitted_logsynergy):
        from repro.logs import generate_logs
        records = generate_logs("thunderbird", 10, seed=123)
        report = fitted_logsynergy.detect_stream(
            [r.message for r in records], timestamps=[r.timestamp for r in records]
        )
        assert report.system == "thunderbird"
        assert 0.0 <= report.score <= 1.0
        assert len(report.interpretations) == 10
        assert report.first_timestamp is not None

    def test_detect_stream_flags_anomalous_window(self, fitted_logsynergy):
        """A window full of a known anomaly concept must score higher than a
        purely normal window."""
        anomalous = ["kernel: Kernel panic - not syncing: Fatal exception in interrupt cpu 3"] * 6
        normal = ["heartbeat: tbird-17 alive, seq 5"] * 6
        anomaly_score = fitted_logsynergy.detect_stream(anomalous).score
        normal_score = fitted_logsynergy.detect_stream(normal).score
        assert anomaly_score > normal_score


class TestBatchFirstAPI:
    def test_predict_single_sequence_returns_int(self, fitted_logsynergy, tiny_experiment_data):
        sequence = tiny_experiment_data["target_test"][0]
        prediction = fitted_logsynergy.predict(sequence)
        assert isinstance(prediction, int)
        assert prediction in (0, 1)

    def test_predict_proba_single_sequence_returns_float(
            self, fitted_logsynergy, tiny_experiment_data):
        sequence = tiny_experiment_data["target_test"][0]
        probability = fitted_logsynergy.predict_proba(sequence)
        assert isinstance(probability, float)
        assert 0.0 <= probability <= 1.0

    def test_single_matches_batch(self, fitted_logsynergy, tiny_experiment_data):
        batch = tiny_experiment_data["target_test"][:5]
        batch_probs = fitted_logsynergy.predict_proba(batch)
        assert isinstance(batch_probs, np.ndarray)
        assert batch_probs.shape == (5,)
        for sequence, expected in zip(batch, batch_probs):
            # BLAS kernels differ across batch shapes; scores agree to
            # float32 noise, not bit-for-bit.
            assert fitted_logsynergy.predict_proba(sequence) == pytest.approx(
                expected, rel=1e-3, abs=1e-6
            )

    def test_detect_stream_batch_matches_sequential(self, fitted_logsynergy):
        from repro.logs import generate_logs
        windows = [
            [r.message for r in generate_logs("thunderbird", 10, seed=seed)]
            for seed in (11, 12, 13)
        ]
        # Mixed lengths exercise the length-grouped model calls.
        windows.append(windows[0][:6])
        batch_reports = fitted_logsynergy.detect_stream_batch(windows)
        assert len(batch_reports) == len(windows)
        for window, batched in zip(windows, batch_reports):
            single = fitted_logsynergy.detect_stream(window)
            assert batched.score == pytest.approx(single.score, rel=1e-3, abs=1e-6)
            assert batched.is_anomalous == single.is_anomalous
            assert batched.interpretations == single.interpretations

    def test_detect_stream_batch_validates_timestamps(self, fitted_logsynergy):
        with pytest.raises(ValueError):
            fitted_logsynergy.detect_stream_batch([["a b c"] * 6], timestamps=[])


class TestAblationSwitchConfig:
    def test_switches_live_on_config(self):
        config = LogSynergyConfig(use_lei=False, use_sufe=False, use_da=False)
        model = LogSynergy(config)
        assert (model.use_lei, model.use_sufe, model.use_da) == (False, False, False)
        assert model.llm is None

    def test_no_warning_without_kwargs(self, recwarn):
        LogSynergy(LogSynergyConfig())
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]
