"""Ensemble behind the serving stack: ungated runtime, shard
invariance, the online service's day-0 mode and the experiment adapter."""

import numpy as np
import pytest

from repro.deploy.online import OnlineService
from repro.detectors import ensemble_from_spec
from repro.obs import MetricsRegistry
from repro.runtime import InferenceRuntime
from repro.runtime.replay import render_reports
from repro.testing.fuzzer import LogStreamFuzzer


def day0_stream(seed=7):
    fuzzer = LogStreamFuzzer(
        systems=("day0",), dialects={"day0": "bgl"},
        lines_per_system=120, anomaly_bursts=3, burst_length=(3, 6),
        parameter_noise=0.1,
    )
    return fuzzer.generate(seed)


def run_replay(stream, *, shards, spec="ewma,lof,rules,model:max"):
    registry = MetricsRegistry()
    ensemble = ensemble_from_spec(spec, registry=registry)
    runtime = InferenceRuntime.from_ensemble(
        ensemble, shards=shards, window=10, step=5, max_batch=8,
        max_latency=None, backpressure="block", registry=registry,
    )
    for record in stream.records:
        runtime.submit(record)
    reports = runtime.drain()
    return reports, runtime, ensemble


class TestFromEnsemble:
    def test_replay_is_shard_invariant(self):
        stream = day0_stream()
        rendered = [render_reports(run_replay(stream, shards=shards)[0])
                    for shards in (1, 2, 3)]
        assert rendered[0] == rendered[1] == rendered[2]
        assert rendered[0]  # anomalies were actually raised

    def test_gate_is_off_every_window_reaches_the_ensemble(self):
        stream = day0_stream()
        _, runtime, ensemble = run_replay(stream, shards=2)
        windows_seen = runtime.stats.windows_seen
        assert windows_seen > 0
        # No pattern-gate memoization: the ensemble was consulted for
        # every window the runtime assembled, and nothing was remembered
        # in the runtime's own libraries.
        assert ensemble.member_scored_count("rules") == windows_seen
        assert runtime.stats.library_hits == 0
        remembered = sum(len(library) for shard in runtime.shards
                         for library in shard.libraries.values())
        assert remembered == 0

    def test_day0_reports_carry_no_model(self):
        stream = day0_stream()
        reports, _, ensemble = run_replay(stream, shards=1)
        assert ensemble.member_error_count("model") > 0
        assert all(report.is_anomalous for report in reports)

    def test_sharded_sync_runtime_serves_the_ensemble(self):
        stream = day0_stream()
        registry = MetricsRegistry()
        ensemble = ensemble_from_spec("ewma,rules:max", registry=registry)
        runtime = InferenceRuntime.from_ensemble(
            ensemble, shards=2, window=10, step=5, max_batch=8,
            registry=registry,
        )
        for record in stream.records:
            runtime.submit(record)
        reports = runtime.stop()
        assert runtime.stats.windows_seen > 0
        assert reports
        assert all(report.is_anomalous for report in reports)


class TestOnlineServiceEnsemble:
    def test_day0_service_without_model(self):
        stream = day0_stream()
        registry = MetricsRegistry()
        service = OnlineService(
            model=None, registry=registry,
            ensemble=ensemble_from_spec("ewma,lof,rules,model:max",
                                        registry=registry),
        )
        reports = service.process(stream.records)
        assert reports
        assert all(report.is_anomalous for report in reports)
        assert service.stats.windows_seen > 0

    def test_no_model_and_no_ensemble_is_rejected(self):
        with pytest.raises(ValueError, match="fitted LogSynergy model"):
            OnlineService(model=None)


class TestExperimentAdapter:
    def test_run_ensemble_on_shared_splits(self):
        from repro.evaluation.experiment import CrossSystemExperiment

        experiment = CrossSystemExperiment(
            "bgl", ["spirit"], scale=0.002, n_source=50, n_target=40,
            max_test=60, seed=3,
        )
        result = experiment.run(["detectors:ewma,lof,rules:max"])
        method = result.results[0]
        assert method.method == "Ensemble[ewma+lof+rules:max]"
        assert method.target == "bgl"
        assert 0.0 <= method.metrics.f1 <= 1.0
        assert method.metrics.f1 > 0.5  # planted anomalies are recoverable

    def test_run_ensemble_accepts_instance(self):
        from repro.evaluation.experiment import CrossSystemExperiment

        experiment = CrossSystemExperiment(
            "bgl", ["spirit"], scale=0.002, n_source=50, n_target=40,
            max_test=60, seed=3,
        )
        ensemble = ensemble_from_spec("rules", registry=MetricsRegistry())
        method = experiment.run_ensemble(ensemble, method_name="rules-only")
        assert method.method == "rules-only"
        labels = experiment.test_labels
        assert labels.shape[0] == len(experiment.target_test)
        assert isinstance(method.metrics.f1, float)
