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

    def test_lof_shares_the_pipeline_encoder_without_moving_bytes(
            self, fitted_logsynergy, tmp_path):
        """The LOF member's encoder is the pipeline's own (no second
        corpus build mid-stream), and sharing it, OOV cache included,
        renders the bytes a private encoder does."""
        from repro.core import LogSynergy
        from repro.embedding import pretrained

        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = LogStreamFuzzer(
            systems=("thunderbird",), dialects={"thunderbird": "thunderbird"},
            lines_per_system=200, anomaly_bursts=3, burst_length=(3, 6),
            parameter_noise=0.1,
        ).generate(5).records

        def replay(private_encoder: bool) -> str:
            pipeline = LogSynergy.load_pipeline(tmp_path / "pipe")
            ensemble = ensemble_from_spec("ewma,lof,rules,model:max",
                                          pipeline=pipeline,
                                          registry=MetricsRegistry())
            lof = next(member for member in ensemble.members
                       if member.name == "lof")
            if private_encoder:
                dim = pipeline.encoder.dim
                lof.encoder = pretrained._trained_encoder.__wrapped__(dim, 0)
            else:
                assert lof.encoder is pipeline.encoder
            runtime = InferenceRuntime.from_ensemble(
                ensemble, shards=1, window=10, step=5, max_batch=8,
                max_latency=None, registry=MetricsRegistry())
            for record in records:
                runtime.submit(record)
            return render_reports(runtime.drain())

        shared = replay(private_encoder=False)
        assert shared
        assert shared == replay(private_encoder=True)

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


def sample_member_rows(shards, max_latency=None, step=0.0):
    """Serve the bundled sample through ``ewma,lof,rules,model:max`` (as
    ``repro replay/serve --detectors`` does) and return every window's
    member-score row by system, the rendered reports, and how many
    systems each scored batch held.  ``step`` advances the runtime's
    clock by that much per submitted record."""
    from pathlib import Path

    from repro.logs import load_records

    records = load_records(Path(__file__).resolve().parents[2]
                           / "examples" / "data" / "replay_sample.jsonl")
    now = [0.0]
    registry = MetricsRegistry(clock=lambda: now[0])
    ensemble = ensemble_from_spec("ewma,lof,rules,model:max",
                                  registry=registry)
    rows = {}
    score_rows = ensemble._score_rows

    def recording(system, windows):
        got = score_rows(system, windows)
        rows.setdefault(system, []).extend(got)
        return got

    ensemble._score_rows = recording
    runtime = InferenceRuntime.from_ensemble(
        ensemble, shards=shards, max_latency=max_latency,
        backpressure="block", registry=registry)
    mixes = []
    for shard in runtime.shards:
        def counting(batch, _score=shard.score_batch):
            mixes.append(len({pending.system for pending in batch}))
            return _score(batch)
        shard.score_batch = counting
    for record in records:
        runtime.submit(record)
        now[0] += step
    return rows, render_reports(runtime.drain()), mixes


class TestMemberScoresAcrossShards:
    def test_every_member_row_is_shard_invariant(self):
        """``repro replay --out`` renders only anomalous windows, so
        equal bytes say nothing about the scores below threshold: every
        window's member-score row must match at 1, 2 and 3 shards."""
        golden, _, _ = sample_member_rows(1)
        assert sorted(golden) == ["auth-service", "billing-api",
                                  "web-frontend"]
        windows = sum(len(rows) for rows in golden.values())
        assert windows == 3 * ((220 - 10) // 5 + 1)
        live = [score for rows in golden.values() for row in rows
                for score in row if score is not None]
        assert any(score < 0.5 for score in live)
        for shards in (2, 3):
            assert sample_member_rows(shards)[0] == golden, f"shards={shards}"

    def test_latency_flushes_score_like_the_replay(self):
        """A 10 ms budget on a clock that ticks 1 ms per record: each
        shard flushes every lane at its oldest head's deadline, lane by
        lane (the ensemble worker scores one system per call, so lanes
        are not fused), and every member row still matches the
        replay's."""
        golden, rendered, replay_mixes = sample_member_rows(1)
        for shards in (1, 2):
            rows, served, mixes = sample_member_rows(
                shards, max_latency=0.01, step=0.001)
            assert len(mixes) > 3 * len(replay_mixes)
            assert max(mixes) == 1
            assert rows == golden, f"shards={shards}"
            assert served == rendered


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


def counting_masks(monkeypatch):
    """Route every ``mask_message`` binding in ``repro`` through one
    call recorder; returns the list of masked messages."""
    import sys

    from repro.parsing import masking

    original = masking.mask_message
    calls = []

    def counting(message, *args, **kwargs):
        calls.append(message)
        return original(message, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(module, "mask_message", None) is original):
            monkeypatch.setattr(module, "mask_message", counting)
    return calls


class TestMaskOnce:
    """Admission masks each record once and stamps the text on its
    entry; the LOF member embeds that text instead of masking again."""

    def records(self):
        return LogStreamFuzzer(
            systems=("thunderbird", "day0"),
            dialects={"thunderbird": "thunderbird", "day0": "bgl"},
            lines_per_system=120, anomaly_bursts=2, burst_length=(3, 6),
            parameter_noise=0.1,
        ).generate(11).records

    def test_a_fitted_ensemble_runtime_masks_each_record_once(
            self, fitted_logsynergy, tmp_path, monkeypatch):
        from collections import Counter

        from repro.core import LogSynergy
        from repro.parsing.masking import mask_message

        # A reloaded copy: admission grows the featurizers it parses in.
        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        pipeline = LogSynergy.load_pipeline(tmp_path / "pipe")
        ensemble = ensemble_from_spec("ewma,lof,rules,model:max",
                                      pipeline=pipeline,
                                      registry=MetricsRegistry())
        assert ensemble.pipeline is pipeline
        windows = []
        score_rows = ensemble._score_rows

        def recording(system, batch):
            windows.extend(batch)
            return score_rows(system, batch)

        ensemble._score_rows = recording
        runtime = InferenceRuntime.from_ensemble(
            ensemble, shards=2, max_batch=8, registry=MetricsRegistry())
        records = self.records()
        calls = counting_masks(monkeypatch)
        for record in records:
            runtime.submit(record)
        runtime.drain()
        assert Counter(calls) == Counter(record.message.strip()
                                         for record in records)
        assert windows
        for window in windows:
            for entry in window:
                assert entry.masked == mask_message(entry.message)

    def test_a_runtime_whose_admission_does_not_parse_masks_nothing(
            self, monkeypatch):
        from repro.runtime import SyntheticWorker, message_event

        runtime = InferenceRuntime(
            SyntheticWorker(), shards=2, max_batch=8,
            registry=MetricsRegistry())
        records = self.records()
        calls = counting_masks(monkeypatch)
        for record in records:
            runtime.submit(record)
        assert runtime.drain()
        assert calls == []
        assert message_event("day0", records[0].message)[1] is None
