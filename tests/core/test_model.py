"""LogSynergyModel tests."""

import numpy as np
import pytest

from repro.config import LogSynergyConfig
from repro.core.model import LogSynergyModel

_CONFIG = LogSynergyConfig(
    d_model=32, num_heads=4, num_layers=1, d_ff=64, feature_dim=16, embedding_dim=24,
)


def _model(num_systems=3, seed=0):
    return LogSynergyModel(_CONFIG, num_systems=num_systems,
                           rng=np.random.default_rng(seed))


def _batch(n=4, window=10, dim=24, seed=0):
    return np.random.default_rng(seed).standard_normal((n, window, dim)).astype(np.float32)


class TestArchitecture:
    def test_feature_split_dimensions(self):
        model = _model()
        unified, specific = model.extract_features(_batch())
        assert unified.shape == (4, 16)
        assert specific.shape == (4, 16)

    def test_classifier_heads(self):
        model = _model(num_systems=5)
        unified, specific = model.extract_features(_batch())
        assert model.anomaly_logits(unified).shape == (4,)
        assert model.system_logits(specific).shape == (4, 5)

    def test_needs_two_systems(self):
        with pytest.raises(ValueError):
            LogSynergyModel(_CONFIG, num_systems=1)

    def test_forward_probabilities_in_unit_interval(self):
        probs = _model()(_batch()).data
        assert np.all((probs >= 0) & (probs <= 1))


class TestPrediction:
    def test_predict_binary(self):
        preds = _model().predict(_batch(n=8))
        assert set(np.unique(preds)) <= {0, 1}

    def test_predict_proba_batched_matches_single(self):
        model = _model()
        model.eval()
        x = _batch(n=10)
        full = model.predict_proba(x, batch_size=3)
        single = model.predict_proba(x, batch_size=100)
        np.testing.assert_allclose(full, single, atol=1e-6)

    def test_predict_restores_training_mode(self):
        model = _model()
        model.train()
        model.predict(_batch())
        assert model.training

    def test_predict_proba_same_bytes_from_either_mode(self):
        """A served model sits in eval mode and skips the mode walks; the
        probabilities are byte-identical to a call from training mode,
        and a training model is fully back in training mode after."""
        model = _model()
        x = _batch(n=4)
        model.train()
        from_training = model.predict_proba(x)
        assert all(module.training for _name, module in model.named_modules())
        model.eval()
        from_eval = model.predict_proba(x)
        assert not any(module.training
                       for _name, module in model.named_modules())
        assert from_training.tobytes() == from_eval.tobytes()

    def test_predict_empty(self):
        assert _model().predict_proba(np.zeros((0, 10, 24), dtype=np.float32)).shape == (0,)

    def test_custom_threshold(self):
        model = _model()
        probs = model.predict_proba(_batch(n=16))
        strict = model.predict(_batch(n=16), threshold=probs.max() + 0.1)
        assert strict.sum() == 0


class TestSerialization:
    def test_state_roundtrip_preserves_predictions(self, tmp_path):
        a = _model(seed=1)
        b = _model(seed=2)
        x = _batch(n=6, seed=3)
        path = str(tmp_path / "logsynergy.npz")
        a.save(path)
        b.load(path)
        np.testing.assert_allclose(a.predict_proba(x), b.predict_proba(x), atol=1e-6)
