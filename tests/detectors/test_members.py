"""Portfolio member tests: calibration math, EWMA spikes, LOF novelty,
rule matching and the learned-model adapter's degradation contract."""

import math
import zlib
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.detectors import (
    DetectorError,
    EwmaRateDetector,
    LofLiteDetector,
    ModelDetector,
    RuleDetector,
    calibrate,
    window_span_seconds,
)
from repro.detectors import lof as lof_module
from repro.logs.generator import LogRecord
from repro.parsing.masking import mask_message
from repro.runtime import UnifiedLog


def make_window(messages, *, start=0.0, spacing=1.0, system="sys"):
    base = datetime(2025, 1, 1)
    return [
        LogRecord(
            timestamp=base + timedelta(seconds=start + index * spacing),
            system=system,
            host=f"{system}-host01",
            severity="INFO",
            message=message,
            raw=message,
            is_anomalous=False,
            concept="concept.test",
        )
        for index, message in enumerate(messages)
    ]


class TestCalibrate:
    def test_logistic_shape(self):
        assert calibrate(3.0, center=3.0) == pytest.approx(0.5)
        assert calibrate(100.0) == pytest.approx(1.0, abs=1e-6)
        assert calibrate(-100.0) == pytest.approx(0.0, abs=1e-6)

    def test_monotone(self):
        values = [calibrate(d) for d in (0.0, 1.0, 2.0, 3.0, 4.0, 8.0)]
        assert values == sorted(values)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            calibrate(1.0, scale=0.0)


class TestWindowSpan:
    def test_datetime_timestamps(self):
        window = make_window(["a", "b", "c"], spacing=2.0)
        assert window_span_seconds(window) == pytest.approx(4.0)

    def test_short_window(self):
        assert window_span_seconds(make_window(["a"])) == 0.0
        assert window_span_seconds([]) == 0.0


class TestEwmaRateDetector:
    def _steady_windows(self, count, spacing):
        return [make_window([f"m{i}-{j}" for j in range(10)],
                            start=i * 10 * spacing, spacing=spacing)
                for i in range(count)]

    def test_burst_scores_above_steady(self):
        detector = EwmaRateDetector()
        steady = 0.0
        for window in self._steady_windows(12, spacing=1.0):
            steady = detector.score_window("sys", window)
        burst = detector.score_window(
            "sys", make_window([f"b{j}" for j in range(10)],
                               start=200.0, spacing=0.01))
        assert burst > max(steady, 0.9)

    def test_per_system_state_is_independent(self):
        detector = EwmaRateDetector()
        for window in self._steady_windows(8, spacing=1.0):
            detector.score_window("a", window)
        # A fresh system's first window seeds its own baseline: no score.
        first = detector.score_window(
            "b", make_window(["x"] * 10, spacing=0.01))
        assert first == 0.0

    def test_slower_than_baseline_scores_zero(self):
        detector = EwmaRateDetector()
        for window in self._steady_windows(8, spacing=1.0):
            detector.score_window("sys", window)
        quiet = detector.score_window(
            "sys", make_window(["q"] * 10, start=500.0, spacing=10.0))
        assert quiet == 0.0

    def test_declares_warmup(self):
        assert EwmaRateDetector().warmup_windows > 0


class TestLofLiteDetector:
    def test_the_encoder_is_resolved_at_build_not_in_the_first_batch(
            self, monkeypatch):
        import repro.embedding

        loaded = []
        loader = repro.embedding.load_pretrained_encoder

        def counting_loader(*args, **kwargs):
            loaded.append(1)
            return loader(*args, **kwargs)

        monkeypatch.setattr(repro.embedding, "load_pretrained_encoder", counting_loader)
        detector = LofLiteDetector(k=2)
        assert loaded == [1]
        assert detector.encoder is loader()
        loaded.clear()
        for start in range(0, 40, 5):
            detector.score_window("sys", make_window(
                [f"node {index} link up" for index in range(start, start + 10)]))
        assert loaded == []

    def test_novel_content_scores_above_repeats(self):
        detector = LofLiteDetector(k=2)
        repeated = make_window(["connection from 10.0.0.1 established"] * 10)
        for _ in range(10):
            familiar = detector.score_window("sys", repeated)
        novel = detector.score_window(
            "sys", make_window(["kernel panic unrecoverable machine check"] * 10))
        assert novel > familiar

    def test_reference_capacity_is_bounded(self):
        detector = LofLiteDetector(k=2, capacity=8)
        for index in range(30):
            detector.score_window(
                "sys", make_window([f"event number {index}"] * 10))
        assert len(detector._references["sys"].vectors) <= 8


    def test_overlapping_windows_encode_only_new_messages(self):
        """Reusing the previous window's vectors and the masked-text memo
        gives window vectors byte-identical to encoding every masked
        message, with one encode per distinct masked text."""
        from repro.embedding import load_pretrained_encoder

        class CountingEncoder:
            def __init__(self, inner):
                self.inner = inner
                self.dim = inner.dim
                self.encoded = 0

            def encode(self, sentence):
                self.encoded += 1
                return self.inner.encode(sentence)

        encoder = load_pretrained_encoder()
        messages = [f"node {index % 13} link {('up', 'down')[index % 3 == 0]} "
                    f"after {index} retries" for index in range(120)]
        windows = [make_window(messages[start:start + 10])
                   for start in range(0, 111, 5)]
        counting = CountingEncoder(encoder)
        detector = LofLiteDetector(k=2, encoder=counting)
        for window in windows:
            detector.score_window("sys", window)
        state = detector._references["sys"]
        for window, vector in zip(windows, state.vectors):
            matrix = encoder.encode_batch(
                [mask_message(entry.message) for entry in window])
            expected = matrix.mean(axis=0)
            expected = (expected / float(np.linalg.norm(expected))).astype(np.float32)
            assert vector.tobytes() == expected.tobytes()
        assert len(state.vectors) == len(windows)
        # "node <*> link up after <*> retries" and its "down" twin.
        assert counting.encoded == 2
        assert len(state.embedded) == 10

    def test_windows_differing_only_in_parameters_embed_identically(self):
        first = make_window([
            "node 3 link up after 7 retries",
            "dma 0x1f00 mapped from 10.0.0.1:8080 to /var/run/a.sock",
            "job 1b4e28ba-2fa1-11d2-883f-0016d3cca427 took 12.5 s",
        ] * 3)
        second = make_window([
            "node 11 link up after 42 retries",
            "dma 0xbeef mapped from 192.168.7.20:443 to /tmp/b",
            "job 9f0c1a2b-3c4d-5e6f-7a8b-9c0d1e2f3a4b took 3 s",
        ] * 3)
        other = make_window(["node 3 link down after 7 retries"] * 9)
        vectors = []
        for window in (first, second, other):
            detector = LofLiteDetector(k=2)
            detector.score_window("sys", window)
            vectors.append(detector._references["sys"].vectors[0])
        assert vectors[0].tobytes() == vectors[1].tobytes()
        assert vectors[0].tobytes() != vectors[2].tobytes()

    def test_memo_is_bounded_and_evicts_oldest_first(self):
        capacity = lof_module._MEMO_CAPACITY
        detector = LofLiteDetector(k=2)
        masked = []
        for start in range(0, capacity + 100, 10):
            messages = [f"event k{index}x seen on node {index}"
                        for index in range(start, start + 10)]
            masked.extend(mask_message(message) for message in messages)
            detector.score_window("sys", make_window(messages))
            assert len(detector._memo) <= capacity
        assert list(detector._memo) == masked[-capacity:]
        # An evicted text is encoded again to the same vector.
        evicted = make_window([f"event k0x seen on node {index}" for index in range(10)])
        fresh = LofLiteDetector(k=2)
        fresh.score_window("sys", evicted)
        detector.score_window("other", evicted)
        assert (detector._references["other"].vectors[0].tobytes()
                == fresh._references["sys"].vectors[0].tobytes())


class TestRuleDetector:
    def test_failure_language_fires(self):
        detector = RuleDetector()
        score = detector.score_window(
            "sys", make_window(["data corruption detected on volume 3",
                                "heartbeat ok", "heartbeat ok"]))
        assert score >= 0.8

    def test_clean_window_is_silent(self):
        detector = RuleDetector()
        score = detector.score_window(
            "sys", make_window(["session opened for user alpha",
                                "heartbeat ok"]))
        assert score == 0.0

    def test_score_grows_with_flagged_lines(self):
        detector = RuleDetector()
        one = detector.score_window(
            "sys", make_window(["write failed on disk 1", "ok", "ok"]))
        many = detector.score_window(
            "sys", make_window(["write failed on disk 1",
                                "write failed on disk 2",
                                "fatal error on node 3"]))
        assert many > one
        assert many <= 1.0

    def test_verdicts_are_memoized_per_system(self):
        """A line the system's previous window judged is not evaluated
        again; other systems and older windows share no verdicts."""
        detector = RuleDetector()
        evaluated = []
        judge = detector._line_flagged
        detector._line_flagged = lambda message: (
            evaluated.append(message) or judge(message))

        detector.score_window("sys", make_window(
            ["timeout exceeded on link 9", "heartbeat ok",
             "timeout exceeded on link 9"]))
        assert evaluated == ["timeout exceeded on link 9", "heartbeat ok"]
        evaluated.clear()
        overlap = detector.score_window("sys", make_window(
            ["timeout exceeded on link 9", "disk write failed"]))
        assert evaluated == ["disk write failed"]
        assert overlap == RuleDetector().score_window("sys", make_window(
            ["timeout exceeded on link 9", "disk write failed"]))
        evaluated.clear()
        detector.score_window("other", make_window(["disk write failed"]))
        assert evaluated == ["disk write failed"]
        evaluated.clear()
        # Only the previous window is remembered: "heartbeat ok" left it.
        detector.score_window("sys", make_window(["heartbeat ok"]))
        assert evaluated == ["heartbeat ok"]

    def test_lines_with_one_crc32_keep_their_own_verdicts(self):
        healthy = "heartbeat ok on node 46da558d"
        failing = "disk write failed on node 0690ef1e"
        assert (zlib.crc32(healthy.lower().encode("utf-8"))
                == zlib.crc32(failing.lower().encode("utf-8")))
        detector = RuleDetector()
        assert detector.score_window("sys", make_window([healthy])) == 0.0
        score = detector.score_window("sys", make_window([failing]))
        assert score == RuleDetector().score_window(
            "sys", make_window([failing]))
        assert score == pytest.approx(0.9)


def stamped_window(messages):
    """A runtime-shaped window: entries carry the admission ``event_id``."""
    return [UnifiedLog(timestamp=0.0, system="sys", host="sys-host01",
                       message=message, event_id=index)
            for index, message in enumerate(messages)]


class TestModelDetector:
    def test_day0_without_pipeline_degrades(self):
        detector = ModelDetector()
        assert not detector.available
        with pytest.raises(DetectorError):
            detector.score_window("sys", stamped_window(["boot ok"] * 10))

    def test_pipeline_exceptions_become_detector_errors(self):
        class ExplodingPipeline:
            model = object()

            def score_event_windows(self, system, grid, windows):
                raise RuntimeError("featurizer corrupted")

        detector = ModelDetector(pipeline=ExplodingPipeline())
        assert detector.available
        with pytest.raises(DetectorError):
            detector.score_window("sys", stamped_window(["boot ok"] * 10))

    def test_report_score_is_clamped(self):
        class Report:
            score = 7.5

        class Pipeline:
            model = object()

            def score_event_windows(self, system, grid, windows):
                return [Report() for _ in grid]

        detector = ModelDetector(pipeline=Pipeline())
        score = detector.score_window("sys", stamped_window(["x"] * 10))
        assert score == 1.0

    def test_batch_scores_the_stamped_ids_in_one_call(self):
        calls = []

        class Report:
            def __init__(self, score):
                self.score = score

        class Pipeline:
            model = object()

            def score_event_windows(self, system, grid, windows):
                calls.append((system, grid, windows))
                return [Report(0.1 * len(ids)) for ids in grid]

        detector = ModelDetector(pipeline=Pipeline())
        windows = [stamped_window(["a", "b"]), stamped_window(["c"])]
        assert detector.score_windows("sys", windows) == pytest.approx([0.2, 0.1])
        assert calls == [("sys", [[0, 1], [0]], [["a", "b"], ["c"]])]

    def test_unstamped_entries_are_a_clear_detector_error(self):
        class Pipeline:
            model = object()

            def score_event_windows(self, system, grid, windows):
                raise AssertionError("must not be reached")

        detector = ModelDetector(pipeline=Pipeline())
        with pytest.raises(DetectorError, match="no event_id"):
            detector.score_windows("sys", [make_window(["boot ok"] * 10)])
