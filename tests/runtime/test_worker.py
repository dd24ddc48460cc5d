"""Workers over batches that mix systems: a shard's latency flush hands
every due lane to one ``score_batch`` call."""

import numpy as np

from repro.logs.generator import LogGenerator
from repro.runtime import EnsembleWorker, ModelWorker, PendingWindow
from repro.runtime.shard import normalize_record

SYSTEMS = ("bgl", "spirit", "thunderbird")


def lanes_of(event_fn, per_system: int) -> dict[str, list[PendingWindow]]:
    """``per_system`` windows (10 records, step 5) of each system, with
    every entry stamped by ``event_fn`` as admission would."""
    lanes = {}
    for offset, system in enumerate(SYSTEMS):
        records = LogGenerator(system, seed=40 + offset,
                               repeat_probability=0.5).generate(
                                   5 * per_system + 5)
        entries = [normalize_record(record, event_fn) for record in records]
        lanes[system] = [
            PendingWindow(system=system, index=index,
                          window=entries[5 * index:5 * index + 10])
            for index in range(per_system)]
    return lanes


def mixed(lanes, start: int, stop: int) -> list[PendingWindow]:
    """Windows ``start:stop`` of every lane, lane after lane."""
    return [pending for system in SYSTEMS
            for pending in lanes[system][start:stop]]


class TestModelWorker:
    def test_fused_batch_scores_each_row_through_its_own_system(
            self, fitted_logsynergy, tmp_path):
        from repro.core import LogSynergy

        # Admission parses into the featurizer stores: work on a copy.
        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        pipeline = LogSynergy.load_pipeline(tmp_path / "pipe")
        lanes = lanes_of(pipeline.event_id_of, per_system=5)
        worker = ModelWorker(pipeline)
        batch = mixed(lanes, 0, 5)

        fused = worker.score_batch(batch)
        per_lane = [report for system in SYSTEMS
                    for report in worker.score_batch(lanes[system])]

        assert [r.system for r in fused] == [p.system for p in batch]
        assert [(r.messages, r.interpretations, r.first_timestamp)
                for r in fused] == \
            [(r.messages, r.interpretations, r.first_timestamp)
             for r in per_lane]
        # One forward over the rows each gathered by its own system's
        # featurizer.
        stacked = np.concatenate([
            pipeline._featurizer(system).gather(
                [[entry.event_id for entry in p.window]
                 for p in lanes[system]])
            for system in SYSTEMS])
        assert np.array_equal(
            np.array([r.score for r in fused]),
            pipeline.model.predict_proba(stacked).astype(np.float64))
        # The per-lane forwards see other row counts, and BLAS picks its
        # kernel by row count: float32 scores may move in the last bit.
        np.testing.assert_allclose([r.score for r in fused],
                                   [r.score for r in per_lane],
                                   rtol=0, atol=1e-6)
        assert [r.is_anomalous for r in fused] == \
            [r.is_anomalous for r in per_lane]


class TestEnsembleWorker:
    def test_mixed_batch_equals_per_system_calls(self, fitted_logsynergy,
                                                 tmp_path):
        from repro.core import LogSynergy
        from repro.detectors import ensemble_from_spec
        from repro.obs import MetricsRegistry

        spec = "ewma,lof,rules,model:max"
        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        pipeline = LogSynergy.load_pipeline(tmp_path / "pipe")
        lanes = lanes_of(pipeline.event_id_of, per_system=12)

        worker = EnsembleWorker(ensemble_from_spec(
            spec, pipeline=pipeline, registry=MetricsRegistry()))
        got = {system: [] for system in SYSTEMS}
        for start in range(0, 12, 4):
            batch = mixed(lanes, start, start + 4)
            reports = worker.score_batch(batch)
            assert [r.system for r in reports] == [p.system for p in batch]
            for pending, report in zip(batch, reports):
                got[pending.system].append(report.score)

        reference = ensemble_from_spec(spec, pipeline=pipeline,
                                       registry=MetricsRegistry())
        want = {system: [] for system in SYSTEMS}
        for start in range(0, 12, 4):
            for system in SYSTEMS:
                want[system].extend(reference.score_windows(
                    system, [p.window for p in lanes[system][start:start + 4]]))
        assert got == want
        assert worker.ensemble.member_error_count("model") == 0
