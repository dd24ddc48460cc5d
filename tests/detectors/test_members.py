"""Portfolio member tests: calibration math, EWMA spikes, LOF novelty,
rule matching and the learned-model adapter's degradation contract."""

import math
import statistics
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


def reference_rows(state):
    """A LOF reference ring's window vectors, oldest first."""
    capacity = state.ring.shape[0]
    return [state.ring[index % capacity]
            for index in range(max(0, state.seen - capacity), state.seen)]


class PerWindowLof:
    """The LOF member as it scored before batching, one window at a time
    over a list of reference vectors: the parity reference."""

    def __init__(self, encoder, *, k, capacity, scale_window,
                 center=2.0, scale=0.5):
        self.encoder = encoder
        self.k, self.capacity, self.scale_window = k, capacity, scale_window
        self.center, self.scale = center, scale
        self.vectors = {}
        self.distances = {}
        self.embedded = {}

    def _window_vector(self, system, window):
        previous = self.embedded.get(system, {})
        embedded = {}
        for entry in window:
            if entry.message not in embedded:
                vector = previous.get(entry.message)
                embedded[entry.message] = (
                    self.encoder.encode(mask_message(entry.message))
                    if vector is None else vector)
        self.embedded[system] = embedded
        if not window:
            return np.zeros(self.encoder.dim, dtype=np.float32)
        matrix = np.stack([embedded[entry.message] for entry in window])
        vec = matrix.mean(axis=0)
        norm = float(np.linalg.norm(vec))
        if norm > 0:
            vec = vec / norm
        return vec.astype(np.float32)

    def score_window(self, system, window):
        vectors = self.vectors.setdefault(system, [])
        distances = self.distances.setdefault(system, [])
        vec = self._window_vector(system, window)
        score = 0.0
        if len(vectors) > self.k:
            gaps = np.linalg.norm(np.stack(vectors) - vec[None, :], axis=1)
            gaps.sort()
            distance = float(gaps[min(self.k, len(gaps)) - 1])
            if distances:
                ratio = distance / max(statistics.median(distances), 1e-9)
                score = calibrate(ratio, center=self.center, scale=self.scale)
            distances.append(distance)
            if len(distances) > self.scale_window:
                distances.pop(0)
        vectors.append(vec)
        if len(vectors) > self.capacity:
            vectors.pop(0)
        return score


def lof_parity_streams():
    """Three systems' windows: mixed lengths, an empty window, repeats
    and novel templates; "b" carries admission-masked runtime entries."""
    streams = {}
    for offset, system in enumerate(("a", "b", "c")):
        messages = []
        for index in range(260):
            if index % 37 == 11 + offset:
                messages.append(f"kernel panic {index} on cpu{offset} "
                                f"word{index % 5} machine check")
            else:
                messages.append(
                    f"node {index % (5 + offset)} link "
                    f"{('up', 'down', 'flapping')[index % 3]} after "
                    f"{index} retries from 10.0.{offset}.{index % 250}")
        windows = []
        start = 0
        for ordinal in range(70):
            length = (10, 10, 7, 3)[ordinal % 4]
            if ordinal == 9 + offset:
                length = 0
            windows.append(make_window(messages[start:start + length],
                                       system=system))
            start = (start + 3) % 200
        if system == "b":
            windows = [[UnifiedLog(timestamp=entry.timestamp, system=system,
                                   host=entry.host, message=entry.message,
                                   event_id=0,
                                   masked=mask_message(entry.message))
                        for entry in window] for window in windows]
        streams[system] = windows
    return streams


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
        windows = [make_window([f"event number {index}"] * 10)
                   for index in range(30)]
        for window in windows:
            detector.score_window("sys", window)
        state = detector._references["sys"]
        assert state.ring.shape == (8, detector.encoder.dim)
        expected = []
        for window in windows[-8:]:
            fresh = LofLiteDetector(k=2, capacity=8)
            fresh.score_window("sys", window)
            expected.append(fresh._references["sys"].ring[0].tobytes())
        assert [row.tobytes() for row in reference_rows(state)] == expected


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
        assert state.seen == len(windows)
        for window, vector in zip(windows, reference_rows(state)):
            matrix = encoder.encode_batch(
                [mask_message(entry.message) for entry in window])
            expected = matrix.mean(axis=0)
            expected = (expected / float(np.linalg.norm(expected))).astype(np.float32)
            assert vector.tobytes() == expected.tobytes()
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
            vectors.append(detector._references["sys"].ring[0])
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
        assert (detector._references["other"].ring[0].tobytes()
                == fresh._references["sys"].ring[0].tobytes())

    @pytest.mark.parametrize("batch", [1, 7, 16])
    @pytest.mark.parametrize("capacity,scale_window", [(64, 32), (8, 5)])
    def test_batches_score_like_the_per_window_algorithm(
            self, batch, capacity, scale_window):
        """Batched scoring over the ring gives the per-window list
        algorithm's exact scores and final reference set: three
        interleaved systems, a ring that wraps (inside one batch too when
        the batch outgrows it), a trimmed scale window, warm-up, mixed
        window lengths and an empty window."""
        from repro.embedding import load_pretrained_encoder

        encoder = load_pretrained_encoder()
        detector = LofLiteDetector(k=3, capacity=capacity,
                                   scale_window=scale_window, encoder=encoder)
        reference = PerWindowLof(encoder, k=3, capacity=capacity,
                                 scale_window=scale_window)
        streams = lof_parity_streams()
        for start in range(0, 70, batch):
            for system, windows in streams.items():
                chunk = windows[start:start + batch]
                expected = [reference.score_window(system, window)
                            for window in chunk]
                assert detector.score_windows(system, chunk) == expected
        for system in streams:
            state = detector._references[system]
            assert state.seen == 70
            assert state.distances == reference.distances[system]
            assert (sorted(row.tobytes() for row in reference_rows(state))
                    == sorted(vector.tobytes()
                              for vector in reference.vectors[system]))
            assert state.embedded.keys() == reference.embedded[system].keys()

    def test_a_batch_longer_than_a_chunk_matches_single_windows(self):
        windows = lof_parity_streams()["a"]
        whole = LofLiteDetector(k=3, capacity=8)
        single = LofLiteDetector(k=3, capacity=8)
        assert lof_module._CHUNK < len(windows)
        assert whole.score_windows("a", windows) == [
            single.score_window("a", window) for window in windows]
        assert (whole._references["a"].ring.tobytes()
                == single._references["a"].ring.tobytes())


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

            def score_event_ids(self, system, grid):
                raise RuntimeError("featurizer corrupted")

        detector = ModelDetector(pipeline=ExplodingPipeline())
        assert detector.available
        with pytest.raises(DetectorError):
            detector.score_window("sys", stamped_window(["boot ok"] * 10))

    def test_report_score_is_clamped(self):
        class Pipeline:
            model = object()

            def score_event_ids(self, system, grid):
                return [7.5 for _ in grid]

        detector = ModelDetector(pipeline=Pipeline())
        score = detector.score_window("sys", stamped_window(["x"] * 10))
        assert score == 1.0

    def test_batch_scores_the_stamped_ids_in_one_call(self):
        calls = []

        class Pipeline:
            model = object()

            def score_event_ids(self, system, grid):
                calls.append((system, grid))
                return [0.1 * len(ids) for ids in grid]

        detector = ModelDetector(pipeline=Pipeline())
        windows = [stamped_window(["a", "b"]), stamped_window(["c"])]
        assert detector.score_windows("sys", windows) == pytest.approx([0.2, 0.1])
        assert calls == [("sys", [[0, 1], [0]])]

    def test_unstamped_entries_are_a_clear_detector_error(self):
        class Pipeline:
            model = object()

            def score_event_ids(self, system, grid):
                raise AssertionError("must not be reached")

        detector = ModelDetector(pipeline=Pipeline())
        with pytest.raises(DetectorError, match="no event_id"):
            detector.score_windows("sys", [make_window(["boot ok"] * 10)])
