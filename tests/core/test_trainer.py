"""Trainer tests: Eq. 5 optimization, ablation switches, history."""

import numpy as np
import pytest

from repro.config import LogSynergyConfig
from repro.core.model import LogSynergyModel
from repro.core.trainer import LogSynergyTrainer, TrainingBatch

_CONFIG = LogSynergyConfig(
    d_model=32, num_heads=4, num_layers=1, d_ff=64, feature_dim=16,
    embedding_dim=16, epochs=3, batch_size=32, learning_rate=1e-3,
)


def _toy_data(n=128, seed=0):
    """Separable toy task: anomalies have a shifted first event embedding."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6, 16)).astype(np.float32)
    y = rng.integers(0, 2, size=n).astype(np.int64)
    x[y == 1, :, :4] += 2.0
    systems = rng.integers(0, 2, size=n).astype(np.int64)
    x[systems == 1, :, 8:12] += 1.5  # system-specific signal
    domains = (systems == 1).astype(np.int64)
    return TrainingBatch(
        sequences=x, anomaly_labels=y, system_labels=systems, domain_labels=domains
    )


def _make(seed=0, **kwargs):
    model = LogSynergyModel(_CONFIG, num_systems=2, rng=np.random.default_rng(seed))
    return model, LogSynergyTrainer(model, _CONFIG, **kwargs)


class TestTraining:
    def test_loss_decreases(self):
        _, trainer = _make()
        history = trainer.fit(_toy_data(), epochs=5)
        assert history.total[-1] < history.total[0]

    def test_learns_separable_task(self):
        model, trainer = _make()
        data = _toy_data()
        trainer.fit(data, epochs=8)
        preds = model.predict(data.sequences)
        accuracy = (preds == data.anomaly_labels).mean()
        assert accuracy > 0.9

    def test_history_has_all_components(self):
        _, trainer = _make()
        history = trainer.fit(_toy_data(), epochs=2)
        assert len(history.total) == 2
        assert len(history.anomaly) == 2
        assert len(history.system) == 2
        assert len(history.mutual_information) == 2
        assert len(history.domain_adaptation) == 2
        last = history.last()
        assert set(last) == {"total", "anomaly", "system", "mi", "da"}

    def test_model_left_in_eval_mode(self):
        model, trainer = _make()
        trainer.fit(_toy_data(), epochs=1)
        assert not model.training


class TestAblationSwitches:
    def test_without_sufe_no_system_loss(self):
        _, trainer = _make(use_sufe=False)
        history = trainer.fit(_toy_data(), epochs=2)
        assert all(v == 0.0 for v in history.system)
        assert all(v == 0.0 for v in history.mutual_information)
        assert any(v != 0.0 for v in history.domain_adaptation)

    def test_without_da_no_domain_loss(self):
        _, trainer = _make(use_da=False)
        history = trainer.fit(_toy_data(), epochs=2)
        assert all(v == 0.0 for v in history.domain_adaptation)
        assert any(v != 0.0 for v in history.system)

    def test_single_domain_batch_skips_da(self):
        """DAAN needs both domains; a single-domain dataset must not crash."""
        data = _toy_data()
        data = TrainingBatch(
            sequences=data.sequences,
            anomaly_labels=data.anomaly_labels,
            system_labels=np.zeros_like(data.system_labels),
            domain_labels=np.zeros_like(data.domain_labels),
        )
        _, trainer = _make()
        history = trainer.fit(data, epochs=1)
        assert history.domain_adaptation[0] == 0.0


class TestEdgeCases:
    def test_empty_data_raises(self):
        _, trainer = _make()
        empty = TrainingBatch(
            sequences=np.zeros((1, 6, 16), dtype=np.float32),
            anomaly_labels=np.zeros(1, dtype=np.int64),
            system_labels=np.zeros(1, dtype=np.int64),
            domain_labels=np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            trainer.fit(empty, epochs=1)  # single sample -> no usable batch

    def test_auto_pos_weight_bounded(self):
        _, trainer = _make()
        labels = np.array([0] * 999 + [1])
        assert trainer._auto_pos_weight(labels) == 50.0
        assert trainer._auto_pos_weight(np.zeros(10)) == 1.0
        assert trainer._auto_pos_weight(np.ones(10)) == 1.0

    def test_explicit_pos_weight_respected(self):
        _, trainer = _make(pos_weight=3.0)
        assert trainer.pos_weight == 3.0


class TestDisentanglement:
    def test_mi_between_feature_halves_drops(self):
        """After SUFE training, the empirical correlation between unified
        and specific features should be modest."""
        model, trainer = _make()
        data = _toy_data(n=192)
        trainer.fit(data, epochs=8)
        from repro import nn
        with nn.no_grad():
            unified, specific = model.extract_features(data.sequences)
        u = unified.data - unified.data.mean(0)
        s = specific.data - specific.data.mean(0)
        corr = np.abs(
            (u.T @ s) / (np.outer(np.linalg.norm(u, axis=0), np.linalg.norm(s, axis=0)) + 1e-9)
        )
        assert corr.mean() < 0.5


class TestOneForwardPerStep:
    """Each step runs the extractor once; the CLUB estimator learns from
    detached copies of that forward's features."""

    @pytest.mark.parametrize("use_sufe", [True, False])
    def test_one_extract_features_per_step(self, monkeypatch, use_sufe):
        calls = []
        original = LogSynergyModel.extract_features

        def counting(self, sequences):
            calls.append(len(sequences))
            return original(self, sequences)

        monkeypatch.setattr(LogSynergyModel, "extract_features", counting)
        _, trainer = _make(use_sufe=use_sufe)
        trainer.fit(_toy_data(), epochs=2)
        assert trainer.global_step == 8  # 128 sequences / 32, two epochs
        assert len(calls) == trainer.global_step

    def test_estimator_loss_puts_no_gradient_on_the_model(self, monkeypatch):
        """Between the estimator's loss and its optimizer step, no model
        parameter's gradient changes, while the estimator's do."""
        model, trainer = _make()
        checked = []

        def grads(params):
            return [None if p.grad is None else p.grad.copy() for p in params]

        original_loss = trainer.club.learning_loss
        original_step = trainer.club_optimizer.step

        def loss_spy(u, s):
            checked.append(grads(model.parameters()))
            return original_loss(u, s)

        def step_spy():
            before = checked[-1]
            after = grads(model.parameters())
            for old, new in zip(before, after):
                assert (old is None and new is None) or np.array_equal(old, new)
            assert all(p.grad is not None and np.any(p.grad != 0)
                       for p in trainer.club.parameters())
            original_step()

        monkeypatch.setattr(trainer.club, "learning_loss", loss_spy)
        monkeypatch.setattr(trainer.club_optimizer, "step", step_spy)
        trainer.fit(_toy_data(), epochs=1)
        assert len(checked) == trainer.global_step

    @pytest.mark.parametrize("use_sufe", [True, False])
    def test_estimator_timer_times_a_forward_free_update(self, monkeypatch,
                                                         use_sufe):
        """``trainer.estimator_step_seconds`` observes once per step with
        SUFE on, and neither it nor ``trainer.main_step_seconds`` spans
        an extractor forward: the clock only advances inside
        ``extract_features``, which ``trainer.batch_seconds`` covers."""
        from repro.obs import MetricsRegistry, use_registry

        now = [0.0]
        original = LogSynergyModel.extract_features

        def ticking(self, sequences):
            now[0] += 1.0
            return original(self, sequences)

        monkeypatch.setattr(LogSynergyModel, "extract_features", ticking)
        registry = MetricsRegistry(clock=lambda: now[0])
        with use_registry(registry):
            _, trainer = _make(use_sufe=use_sufe)
            trainer.fit(_toy_data(), epochs=1)
        estimator = registry.histogram("trainer.estimator_step_seconds")
        main = registry.histogram("trainer.main_step_seconds")
        batch = registry.histogram("trainer.batch_seconds")
        assert estimator.count == (trainer.global_step if use_sufe else 0)
        assert main.count == batch.count == trainer.global_step
        assert estimator.sum == main.sum == 0.0
        assert batch.sum == float(trainer.global_step)
