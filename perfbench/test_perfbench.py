"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q                    # helpers plus the smoke run
    python3 -m pytest perfbench -q -m "not slow"      # helpers only, seconds
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import stats
import tracing
from serve import verdict_digest

HERE = Path(__file__).resolve().parent
Record = namedtuple("Record", "system is_anomalous")


def test_exact_quantile_is_nearest_rank():
    values = [7, 1, 10, 3, 2, 9, 4, 8, 6, 5]
    assert stats.exact_quantile(values, 0.5) == 5
    assert stats.exact_quantile(values, 0.9) == 9
    assert stats.exact_quantile(values, 1.0) == 10
    assert stats.exact_quantile(values, 0.01) == 1
    assert stats.exact_quantile([42.5], 0.99) == 42.5


def test_exact_quantile_returns_an_observed_sample():
    values = [0.013, 0.071, 0.0702, 0.2, 0.05]
    for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        assert stats.exact_quantile(values, q) in values


def test_exact_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.exact_quantile([], 0.5)
    with pytest.raises(ValueError):
        stats.exact_quantile([1.0], 0.0)
    with pytest.raises(ValueError):
        stats.exact_quantile([1.0], 1.5)


def test_ten_samples_beyond_rule():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.supports_quantile(100, 0.9)
    assert not stats.supports_quantile(99, 0.9)
    assert stats.supports_quantile(1000, 0.99)
    assert not stats.supports_quantile(999, 0.99)
    assert stats.supports_quantile(20, 0.5)
    assert not stats.supports_quantile(19, 0.5)
    assert not stats.supports_quantile(0, 0.5)


def test_alert_f1():
    assert stats.alert_f1({"a:0", "a:1"}, {"a:0", "a:1"}) == 1.0
    assert stats.alert_f1(set(), {"a:0"}) == 0.0
    assert stats.alert_f1({"a:2"}, {"a:0"}) == 0.0
    # precision 1/2, recall 1/3 -> F1 = 2 * (1/6) / (5/6) = 0.4
    assert stats.alert_f1({"a:0", "b:0"}, {"a:0", "a:1", "a:2"}) == pytest.approx(0.4)


def interleaved_stream():
    # Two systems, a interleaved with b; b's 13th record is anomalous.
    records = []
    for i in range(30):
        records.append(Record("a", False))
        if i < 15:
            records.append(Record("b", i == 12))
    return records


def test_window_index_maps_window_ids_to_stream_positions():
    records = interleaved_stream()
    index = stats.window_index(records, window=10, step=5)
    # a: 30 records -> windows 0..4; b: 15 records -> windows 0..1.
    assert sorted(index) == ["a:0", "a:1", "a:2", "a:3", "a:4", "b:0", "b:1"]
    positions_a = [i for i, r in enumerate(records) if r.system == "a"]
    positions_b = [i for i, r in enumerate(records) if r.system == "b"]
    assert index["a:0"][0] == positions_a[9]
    assert index["a:4"][0] == positions_a[29]
    assert index["b:1"][0] == positions_b[14]
    # b's record 12 sits in window 1 (records 5..14) only.
    assert index["b:0"][1] is False
    assert index["b:1"][1] is True
    assert not any(index[f"a:{k}"][1] for k in range(5))


def test_due_time_of_a_window_is_its_last_record():
    records = interleaved_stream()
    index = stats.window_index(records, window=10, step=5)
    rate, t0 = 100.0, 5.0
    last, _ = index["b:0"]
    due = t0 + last / rate
    # b's 10th record is the 19th record sent (a and b alternate).
    assert last == 19
    assert due == pytest.approx(5.19)


def test_window_index_skips_systems_shorter_than_a_window():
    records = [Record("a", False)] * 9 + [Record("b", False)] * 10
    assert stats.window_index(records, 10, 5).keys() == {"b:0"}


def test_verdict_digest_ignores_scores():
    line = {"window_id": "a:3", "system": "t", "threshold": 0.5,
            "anomalous": True, "degraded": False}
    one = json.dumps({**line, "score": 0.5185779929161072}, sort_keys=True) + "\n"
    two = json.dumps({**line, "score": 0.5185778737068176}, sort_keys=True) + "\n"
    three = json.dumps({**line, "window_id": "a:4", "score": 0.6}, sort_keys=True) + "\n"
    assert verdict_digest(one) == verdict_digest(two)
    assert verdict_digest(one) != verdict_digest(three)


def test_self_times_and_remainder_sum_to_wall():
    # root [0, 10] holds child [1, 4] (which holds grandchild [2, 3]) and
    # child [5, 9].
    spans = [["root", 0.0, 10.0, -1, None], ["x", 1.0, 4.0, 0, None],
             ["y", 2.0, 3.0, 1, 7], ["x", 5.0, 9.0, 0, None]]
    layers = tracing.aggregate(spans)
    assert layers["root"].self_time == pytest.approx(3.0)
    assert layers["x"].count == 2
    assert layers["x"].total == pytest.approx(7.0)
    assert layers["x"].self_time == pytest.approx(6.0)
    assert layers["y"].size == 7
    assert sum(t.self_time for t in layers.values()) == pytest.approx(10.0)


def test_span_recorder_nests_and_rejects_open_spans():
    recorder = tracing.SpanRecorder()
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.close(outer)
    assert recorder.spans[1][3] == outer
    layers = tracing.aggregate(recorder.spans)
    assert layers["outer"].self_time <= layers["outer"].total
    recorder.open("left-open")
    with pytest.raises(RuntimeError):
        recorder.reset()


def test_install_wraps_and_uninstall_restores():
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.parsing.template_store import TemplateStore

    original = TemplateStore.__dict__["ingest"]
    recorder = tracing.SpanRecorder()
    saved = tracing.install(recorder)
    try:
        TemplateStore().ingest("node 12 link down")
    finally:
        tracing.uninstall(saved)
    assert TemplateStore.__dict__["ingest"] is original
    assert [span[0] for span in recorder.spans] == ["parsing.ingest"]


@pytest.mark.slow
def test_smoke_runs_every_workload_with_the_declared_metrics():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results = [json.loads(line) for line in completed.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 2 * len(spec["workloads"])
    declared = [{m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")] * len(spec["workloads"])
    for result, units in zip(results, declared):
        assert result["correct"] is True
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_faster_half():
    assert stats.faster_half([3.0, 1.0, 2.0, 5.0, 4.0]) == [1.0, 2.0, 3.0]
    passes = [{"p50": 9}, {"p50": 3}, {"p50": 5}]
    assert stats.faster_half(passes, key=lambda p: p["p50"]) == [{"p50": 3}, {"p50": 5}]


def test_pass_sizes_fit_the_stream_parts():
    import workloads as W

    for workload in W.WORKLOADS.values():
        for seconds in (1.0, 20.0, 60.0):
            sizes = W.pass_sizes(workload, seconds, passes=4)
            assert sizes.paced >= len(W.SYSTEMS) * 4 * W.WINDOW
            assert sizes.first >= sizes.paced
            if workload.replay:
                # First stream, its repeat, and the parts between them.
                assert 2 <= sizes.replays < W.PARTS_PER_PASS
                assert sizes.first >= sizes.replay
            else:
                assert sizes.replays == 0


def phase(records, wall_s, cpu_s, latencies=()):
    counts = {"shed": 0, "degraded": 0, "detector_errors": {}}
    return {"records": records, "wall_s": wall_s, "cpu_s": cpu_s,
            "children_cpu_s": 0.0, "windows": records // 5, "counts": counts,
            "failures": [], "latencies_s": list(latencies),
            "lateness_s": [0.0], "alert_f1": 0.5, "digest": "d"}


def test_end_to_end_scales_replay_capacity_by_the_calibration():
    import run
    import workloads as W

    # Two passes, two replay samples each at 1000, 2000, 3000, 4000 rec/s
    # (median 2500), 0.4, 0.3, 0.2, 0.1 s CPU per 1000 records (median
    # 250 ms/krec); calibration 8 ms, twice the nominal: a slow host.
    latencies = [0.001 * i for i in range(1, 201)]
    results = []
    for samples in (((1000, 0.4), (2000, 0.3)), ((3000, 0.2), (4000, 0.1))):
        replays = [phase(1000, 1000 / rate, cpu) for rate, cpu in samples]
        paced = [phase(1000, 1.0, 0.1, latencies)]
        results.append({
            "pass": {"replay": replays, "paced": paced, "failures": [],
                     "calibration_ms": [8.0, 8.0, 8.0], "setup_s": 0.5},
            "reference": {"failures": [], "digest": "r", "alert_f1": 0.25},
            "peak_rss_mb": 50.0, "host": {"ref_loop_ms": 8.0}})
    metrics, info, failures, _ = run.end_to_end(
        W.WORKLOADS["replay-model"], results, fit_s=[1.0, 2.0])
    assert failures == []
    scale = (8.0 / run.CALIBRATION_NOMINAL_MS) ** run.HOST_ELASTICITY
    assert scale > 1.0
    assert info["records_per_s.measured"][0] == pytest.approx(2500.0)
    assert metrics["records_per_s"] == pytest.approx(2500.0 * scale)
    assert info["cpu_ms_per_krec.measured"][0] == pytest.approx(250.0)
    assert metrics["cpu_ms_per_krec"] == pytest.approx(250.0 / scale)
    assert metrics["setup_s"] == pytest.approx(1.5)
    assert metrics["alert_p90_ms"] == pytest.approx(180.0)
    assert metrics["alert_f1"] == 0.25


def test_end_to_end_keeps_the_paced_rate_and_ranks_phases_by_p90():
    import run
    import workloads as W

    steady = [0.05] * 100 + [0.1] * 20
    # Same median, a slow tail: dropped as the slower half by p90.
    tail = [0.05] * 100 + [0.5] * 20
    results = []
    for latencies in (steady, tail):
        paced = [phase(1000, 0.4, 0.2, latencies)]
        results.append({
            "pass": {"replay": [], "paced": paced, "failures": [],
                     "calibration_ms": [8.0, 8.0], "setup_s": 0.5},
            "reference": {"failures": [], "digest": "r", "alert_f1": 0.25},
            "peak_rss_mb": 50.0, "host": {"ref_loop_ms": 8.0}})
    metrics, _, failures, _ = run.end_to_end(
        W.WORKLOADS["serve-paced"], results, fit_s=[1.0, 1.0])
    assert failures == []
    assert metrics["records_per_s"] == pytest.approx(2500.0)
    assert metrics["cpu_ms_per_krec"] == pytest.approx(200.0)
    assert metrics["alert_p90_ms"] == pytest.approx(100.0)
