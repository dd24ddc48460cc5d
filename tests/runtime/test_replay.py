"""Deterministic replay: shard-count invariance against OnlineService."""

import json

from repro.core import LogSynergy
from repro.deploy import OnlineService
from repro.logs.generator import LogGenerator
from repro.obs import MetricsRegistry, use_registry
from repro.runtime import (
    InferenceRuntime, SyntheticWorker, render_reports, replay_records,
    report_sort_key,
)

from .conftest import multi_system_stream, six_system_model_stream


class TestRenderReports:
    def _reports(self):
        runtime = InferenceRuntime(SyntheticWorker(), shards=2, max_batch=4)
        for record in multi_system_stream(systems=3, lines=120):
            runtime.submit(record)
        reports = runtime.drain()
        reports.sort(key=report_sort_key)
        return reports

    def test_renders_canonical_jsonl(self):
        reports = self._reports()
        rendered = render_reports(reports)
        lines = rendered.strip().splitlines()
        assert len(lines) == len(reports) > 0
        for line, report in zip(lines, reports):
            payload = json.loads(line)
            assert payload["system"] == report.system
            assert payload["window_id"] == report.metadata["window_id"]
            assert set(payload) == {"window_id", "system", "score",
                                    "threshold", "anomalous", "degraded"}

    def test_sort_key_orders_by_system_then_ordinal(self):
        reports = self._reports()
        keys = [report_sort_key(r) for r in reports]
        assert keys == sorted(keys)
        # Ordinals are numeric, not lexicographic: "svc:10" > "svc:9".
        systems = {r.system for r in reports}
        for system in systems:
            ordinals = [k[1] for k in keys if k[0] == system]
            assert all(isinstance(o, int) for o in ordinals)


class TestReplayRecords:
    def test_byte_identical_across_shard_counts(self, fitted_logsynergy):
        records = LogGenerator("thunderbird", seed=21,
                               repeat_probability=0.6).generate(900)
        rendered = set()
        for shards in (1, 2, 4):
            reports, _runtime = replay_records(
                fitted_logsynergy, records, shards=shards, max_batch=8)
            rendered.add(render_reports(reports))
        assert len(rendered) == 1

    def test_matches_online_service_process(self, fitted_logsynergy):
        records = LogGenerator("thunderbird", seed=22,
                               repeat_probability=0.6).generate(900)
        service = OnlineService(fitted_logsynergy)
        expected = sorted(service.process(records), key=report_sort_key)

        reports, _runtime = replay_records(fitted_logsynergy, records,
                                           shards=4, max_batch=16)
        anomalous = [r for r in reports if r.is_anomalous]
        assert render_reports(anomalous) == render_reports(expected)


class TestParseOnce:
    def test_sync_model_replay_parses_each_record_once(
            self, fitted_logsynergy, tmp_path):
        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = six_system_model_stream()
        registry = MetricsRegistry()
        # Drain parsers bind their counters at construction, so the
        # registry is installed before the pipeline (and the featurizers
        # new systems get online) are built.
        with use_registry(registry):
            model = LogSynergy.load_pipeline(tmp_path / "pipe")
            reports, runtime = replay_records(
                model, records, shards=2, max_batch=4, registry=registry)
        assert reports and runtime.stats.model_invocations > 0
        parsed = registry.counter("drain.messages_parsed").value
        assert parsed == len(records)

    def test_detect_stream_scores_like_the_runtime(
            self, fitted_logsynergy, tmp_path):
        """A target-system window scores the same through the public
        ``detect_stream_batch`` as through the served runtime path."""
        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = LogGenerator("thunderbird", seed=23,
                               repeat_probability=0.6).generate(400)
        served, _runtime = replay_records(
            LogSynergy.load_pipeline(tmp_path / "pipe"), records,
            shards=1, max_batch=1)
        assert served

        direct = LogSynergy.load_pipeline(tmp_path / "pipe")
        windows = [[record.message.strip() for record in records[start:start + 10]]
                   for start in range(0, len(records) - 9, 5)]
        scored = [direct.detect_stream_batch([window])[0] for window in windows]
        for report in served:
            expected = scored[int(report.metadata["window_id"].rpartition(":")[2])]
            assert report.system == expected.system == "thunderbird"
            assert report.score == expected.score
            assert report.interpretations == expected.interpretations
