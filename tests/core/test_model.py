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
        """The inference plan never applies dropout: the probabilities
        are byte-identical from either mode, and a training model stays
        in training mode."""
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


# The perfbench serving model: its widths, window 10 (so max_len 64).
_SERVED_CONFIG = LogSynergyConfig(
    d_model=32, num_heads=4, num_layers=2, d_ff=64, feature_dim=16,
    embedding_dim=64, epochs=2, batch_size=32, learning_rate=5e-4,
)


@pytest.fixture(scope="module")
def served_model():
    """A fitted model of the served size (2 epochs on random windows)."""
    from repro.core.trainer import LogSynergyTrainer, TrainingBatch

    rng = np.random.default_rng(5)
    n = 96
    batch = TrainingBatch(
        sequences=rng.standard_normal((n, 10, 64)).astype(np.float32),
        anomaly_labels=(rng.random(n) < 0.2).astype(np.int64),
        system_labels=rng.integers(0, 3, n),
        domain_labels=(rng.random(n) < 0.3).astype(np.int64),
    )
    model = LogSynergyModel(_SERVED_CONFIG, num_systems=3,
                            rng=np.random.default_rng(1))
    LogSynergyTrainer(model).fit(batch)
    assert not model.training
    return model


def _autograd_proba(model, x):
    """The module forward in eval mode with grads disabled."""
    from repro import nn

    was_training = model.training
    model.eval()
    try:
        with nn.no_grad():
            return model(x).data
    finally:
        model.train(was_training)


def _windows(n, length, seed):
    return np.random.default_rng(seed).standard_normal(
        (n, length, _SERVED_CONFIG.embedding_dim)).astype(np.float32)


class TestInferencePlan:
    def test_every_batch_size_equals_the_autograd_forward(self, served_model):
        for n in range(1, 65):
            x = _windows(n, _SERVED_CONFIG.window, seed=n)
            got = served_model.predict_proba(x)
            expected = _autograd_proba(served_model, x)
            assert got.dtype == expected.dtype == np.float32
            assert np.array_equal(got, expected), n

    def test_every_window_length_equals_the_autograd_forward(self, served_model):
        max_len = served_model.encoder.positional.max_len
        for length in range(1, max_len + 1):
            for n in (1, 7, 16):
                x = _windows(n, length, seed=1000 * length + n)
                assert np.array_equal(served_model.predict_proba(x),
                                      _autograd_proba(served_model, x)), (n, length)

    def test_chunked_calls_equal_the_autograd_forward_per_chunk(self, served_model):
        x = _windows(50, 10, seed=3)
        expected = np.concatenate([_autograd_proba(served_model, x[i:i + 16])
                                   for i in range(0, 50, 16)])
        assert np.array_equal(served_model.predict_proba(x, batch_size=16), expected)

    def test_too_long_a_window_raises_the_same_error(self, served_model):
        x = _windows(2, served_model.encoder.positional.max_len + 1, seed=4)
        with pytest.raises(ValueError) as planned:
            served_model.predict_proba(x)
        with pytest.raises(ValueError) as module:
            _autograd_proba(served_model, x)
        assert str(planned.value) == str(module.value)

    def test_builds_no_tensor(self, served_model, monkeypatch):
        from repro.nn.tensor import Tensor

        built = []
        original = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        served_model.predict_proba(_windows(8, 10, seed=5))
        assert built == []
        _autograd_proba(served_model, _windows(8, 10, seed=5))
        assert built  # the counter does see the module forward

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("training", [True, False])
    def test_leaves_the_training_flag_alone(self, fused, training):
        from repro import nn

        model = LogSynergyModel(_SERVED_CONFIG, num_systems=3,
                                rng=np.random.default_rng(2))
        model.train(training)
        with nn.use_fused_kernels(fused):
            model.predict_proba(_windows(4, 10, seed=6))
        assert all(module.training is training
                   for _name, module in model.named_modules())

    def test_scores_with_weights_loaded_after_construction(self, served_model):
        x = _windows(12, 10, seed=7)
        model = LogSynergyModel(_SERVED_CONFIG, num_systems=3,
                                rng=np.random.default_rng(9))
        before = model.predict_proba(x)
        model.load_state_dict(served_model.state_dict())
        after = model.predict_proba(x)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, served_model.predict_proba(x))

    def test_unfused_switch_keeps_the_module_forward(self, served_model):
        from repro import nn

        x = _windows(9, 10, seed=8)
        with nn.use_fused_kernels(False):
            got = served_model.predict_proba(x)
            expected = _autograd_proba(served_model, x)
        assert np.array_equal(got, expected)
