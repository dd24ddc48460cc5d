"""Integration tests: whole-system flows crossing every subsystem."""

import numpy as np

from repro.config import LogSynergyConfig
from repro.core import LogSynergy
from repro.evaluation.metrics import binary_metrics


class TestOfflineToOnline:
    def test_full_offline_online_loop(self, fitted_logsynergy, tiny_experiment_data):
        """Offline fit -> online stream detection -> report content."""
        from repro.logs import generate_logs
        records = generate_logs("thunderbird", 10, seed=77)
        report = fitted_logsynergy.detect_stream(
            [r.message for r in records],
            timestamps=[r.timestamp for r in records],
        )
        assert report.system == "thunderbird"
        rendered = report.render()
        for record in records[:3]:
            assert record.message in rendered


class TestLEIBenefit:
    def test_lei_improves_over_raw_templates(self, tiny_experiment_data):
        """The Fig 5 ablation in miniature: with-LEI must beat without-LEI
        on cross-system transfer (dialect vocabularies are disjoint)."""
        config = LogSynergyConfig(
            d_model=32, num_heads=4, num_layers=1, d_ff=64, feature_dim=16,
            embedding_dim=64, epochs=6, batch_size=64, learning_rate=3e-4, seed=1,
        )
        kwargs = dict(
            sources=tiny_experiment_data["sources"],
            target_system=tiny_experiment_data["target"],
            target_sequences=tiny_experiment_data["target_train"],
        )
        test = tiny_experiment_data["target_test"]
        labels = [s.label for s in test]

        with_lei = LogSynergy(config.with_overrides(use_lei=True))
        with_lei.fit(**kwargs)
        f1_with = binary_metrics(labels, with_lei.predict(test)).f1

        without_lei = LogSynergy(config.with_overrides(use_lei=False))
        without_lei.fit(**kwargs)
        f1_without = binary_metrics(labels, without_lei.predict(test)).f1

        assert f1_with >= f1_without


class TestDeterminism:
    def test_same_seed_same_predictions(self, tiny_experiment_data):
        config = LogSynergyConfig(
            d_model=32, num_heads=4, num_layers=1, d_ff=64, feature_dim=16,
            embedding_dim=64, epochs=2, batch_size=64, seed=7,
        )
        test = tiny_experiment_data["target_test"][:100]

        def run():
            model = LogSynergy(config)
            model.fit(
                tiny_experiment_data["sources"],
                tiny_experiment_data["target"],
                tiny_experiment_data["target_train"],
            )
            return model.predict_proba(test)

        np.testing.assert_allclose(run(), run(), atol=1e-5)


class TestModelPersistence:
    def test_save_load_preserves_detector(self, fitted_logsynergy,
                                          tiny_experiment_data, tmp_path):
        test = tiny_experiment_data["target_test"][:60]
        expected = fitted_logsynergy.predict_proba(test)

        path = str(tmp_path / "weights.npz")
        fitted_logsynergy.model.save(path)

        from repro.core.model import LogSynergyModel
        clone = LogSynergyModel(
            fitted_logsynergy.config, num_systems=3,
            rng=np.random.default_rng(999),
        )
        clone.load(path)
        embedded = fitted_logsynergy._featurizer("thunderbird").embed_sequences(test)
        np.testing.assert_allclose(clone.predict_proba(embedded), expected, atol=1e-5)
