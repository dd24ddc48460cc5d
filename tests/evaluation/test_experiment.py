"""Cross-system experiment runner tests."""

import numpy as np
import pytest

from repro.config import LogSynergyConfig
from repro.evaluation.experiment import CrossSystemExperiment

_FAST = LogSynergyConfig(
    d_model=32, num_heads=4, num_layers=1, d_ff=64, feature_dim=16,
    embedding_dim=64, epochs=2, batch_size=64, learning_rate=3e-4,
)


@pytest.fixture(scope="module")
def experiment():
    exp = CrossSystemExperiment(
        "thunderbird", ["bgl", "spirit"], scale=0.002,
        n_source=200, n_target=50, max_test=200, seed=0,
    )
    return exp.prepare()


class TestPreparation:
    def test_splits_built(self, experiment):
        assert set(experiment.source_train) == {"bgl", "spirit"}
        assert len(experiment.target_train) == 50
        assert 0 < len(experiment.target_test) <= 200

    def test_continuous_policy(self, experiment):
        assert experiment.target_train[-1].start_index < experiment.target_test[0].start_index

    def test_prepare_idempotent(self, experiment):
        before = len(experiment.target_test)
        experiment.prepare()
        assert len(experiment.target_test) == before

    def test_target_in_sources_rejected(self):
        with pytest.raises(ValueError):
            CrossSystemExperiment("bgl", ["bgl", "spirit"])


class TestRuns:
    def test_run_logsynergy(self, experiment):
        result = experiment.run_logsynergy(_FAST)
        assert result.method == "LogSynergy"
        assert result.target == "thunderbird"
        assert 0.0 <= result.metrics.f1 <= 1.0
        assert result.train_seconds > 0

    def test_run_ablated_variant_named(self, experiment):
        result = experiment.run_logsynergy(_FAST.with_overrides(use_lei=False),
                                           method_name="LogSynergy w/o LEI")
        assert result.method == "LogSynergy w/o LEI"

    def test_run_baseline_by_name(self, experiment):
        result = experiment.run_baseline("DeepLog", epochs=1, hidden_size=16, num_layers=1)
        assert result.method == "DeepLog"
        assert result.metrics.counts.total == len(experiment.target_test)

    def test_run_many(self, experiment):
        outcome = experiment.run(["LogSynergy"], config=_FAST)
        assert outcome.target == "thunderbird"
        assert outcome.f1_of("LogSynergy") == outcome.results[0].metrics.f1
        row = outcome.results[0].row()
        assert set(row) == {"method", "target", "P(%)", "R(%)", "F1(%)"}
