"""Detector portfolio benchmark: per-scenario F1, member vs ensemble.

Each scenario from the catalog (steady traffic, a volume storm of
normal-looking lines, ramping template drift, a seasonal rate swing and
the day-0 stream — a never-catalogued system with no trained model)
is fuzzed into a labeled stream, then scored window-by-window by every
solo member and by the default ensemble spec.  The point of the table
is the paper's day-0 story: with zero training data the model member
degrades on every call, yet the unsupervised portfolio keeps the F1
above the floor the fuzz invariant enforces.

Written machine-readable as BENCH_detectors.json at the repo root.
``--smoke`` runs only the day-0 scenario, asserts the floor, and
writes no files (the seconds-scale pass used by scripts/smoke.sh).

``--throughput LABEL`` times the default spec behind the synchronous
runtime (``InferenceRuntime.from_ensemble``, no fitted pipeline) over a
fixed six-system volume-burst stream in THROUGHPUT_RUNS fresh processes
and stores the median records/s and CPU ms per 1,000 records, tagged
with the core count, as row LABEL of ``throughput`` in
BENCH_detectors.json.  Run it on two commits to get a before/after pair.
"""

import heapq
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from repro.detectors import DEFAULT_DETECTORS_SPEC, ensemble_from_spec
from repro.evaluation.metrics import binary_metrics
from repro.obs import MetricsRegistry
from repro.testing.fuzzer import LogStreamFuzzer

from common import REPO_ROOT, emit, emit_json

SEED = 7
WINDOW = 10
STEP = 5
MEMBERS = ("ewma", "lof", "rules", "model")
# Must match repro.testing.invariants.DAY0_F1_FLOOR — the same bar the
# fuzz suite enforces per-episode.
DAY0_F1_FLOOR = 0.6


def _stream(scenario: str):
    if scenario == "day0":
        # The invariant-suite day-0 recipe: a fresh system name speaking
        # an existing dialect, no catalog entry, no trained model.
        fuzzer = LogStreamFuzzer(
            systems=("day0",), dialects={"day0": "bgl"},
            lines_per_system=160, anomaly_bursts=4, burst_length=(3, 6),
            parameter_noise=0.1,
        )
    else:
        fuzzer = LogStreamFuzzer(
            systems=("bgl",), lines_per_system=240, anomaly_bursts=3,
            burst_length=(3, 6), parameter_noise=0.1, scenario=scenario,
        )
    return fuzzer.generate(SEED)


def _windows(records):
    return [records[start:start + WINDOW]
            for start in range(0, len(records) - WINDOW + 1, STEP)]


def _f1(stream, spec: str) -> tuple[float, int]:
    """Window F1 of a fresh ensemble over the stream, plus the degraded
    model-member consultation count (0 unless the spec includes it)."""
    ensemble = ensemble_from_spec(spec, registry=MetricsRegistry())
    truth = stream.expected_window_labels(WINDOW, STEP)
    y_true, y_pred = [], []
    for system, records in stream.by_system().items():
        scores = ensemble.score_windows(system, _windows(records))
        for ordinal, score in enumerate(scores):
            y_true.append(int(truth[system][ordinal]))
            y_pred.append(int(score > ensemble.threshold))
    f1 = binary_metrics(np.array(y_true), np.array(y_pred)).f1
    errors = (ensemble.member_error_count("model")
              if any(m.name == "model" for m in ensemble.members) else 0)
    return f1, errors


SCENARIOS = ("steady", "volume-burst", "template-drift", "seasonal", "day0")

THROUGHPUT_SYSTEMS = ("bgl", "spirit", "thunderbird",
                      "system_a", "system_b", "system_c")
THROUGHPUT_RECORDS_PER_SYSTEM = 2000
THROUGHPUT_MAX_BATCH = 16
THROUGHPUT_RUNS = 5


def _score_scenario(scenario: str) -> dict:
    stream = _stream(scenario)
    row = {"scenario": scenario,
           "records": len(stream.records),
           "members": {}}
    for name in MEMBERS:
        f1, _ = _f1(stream, f"{name}:max")
        row["members"][name] = round(f1, 3)
    ensemble_f1, model_errors = _f1(stream, DEFAULT_DETECTORS_SPEC)
    row["ensemble_f1"] = round(ensemble_f1, 3)
    row["degraded_model_calls"] = model_errors
    return row


def smoke() -> None:
    """Day-0 only: the portfolio must clear the fuzz-suite floor with
    the model member degrading on every consultation."""
    row = _score_scenario("day0")
    print(f"day-0 ensemble F1 {row['ensemble_f1']:.3f} "
          f"(floor {DAY0_F1_FLOOR:.2f}, "
          f"{row['degraded_model_calls']} degraded model calls)")
    assert row["degraded_model_calls"] > 0, \
        "day-0 must exercise the no-pipeline model path"
    assert row["ensemble_f1"] >= DAY0_F1_FLOOR, \
        f"day-0 F1 {row['ensemble_f1']:.3f} below floor {DAY0_F1_FLOOR:.2f}"


def test_detector_portfolio():
    rows = [_score_scenario(scenario) for scenario in SCENARIOS]

    lines = [
        "Detector portfolio benchmark (window F1 per scenario, seed "
        f"{SEED}, window={WINDOW} step={STEP})",
        f"{'scenario':<16} " +
        " ".join(f"{name:>7}" for name in MEMBERS) +
        f" {'ensemble':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['scenario']:<16} " +
            " ".join(f"{row['members'][name]:>7.3f}" for name in MEMBERS) +
            f" {row['ensemble_f1']:>9.3f}"
        )
    day0 = next(row for row in rows if row["scenario"] == "day0")
    lines.append(
        f"day-0 floor                 : ensemble {day0['ensemble_f1']:.3f} "
        f">= {DAY0_F1_FLOOR:.2f} with {day0['degraded_model_calls']} "
        "degraded model calls")
    emit("detectors", "\n".join(lines))
    payload = _bench_json()
    payload.update({
        "benchmark": "detector_portfolio",
        "workload": {
            "seed": SEED,
            "window": WINDOW,
            "step": STEP,
            "spec": DEFAULT_DETECTORS_SPEC,
        },
        "results": rows,
        "day0_floor": DAY0_F1_FLOOR,
    })
    emit_json("detectors", payload)

    assert day0["degraded_model_calls"] > 0
    assert day0["ensemble_f1"] >= DAY0_F1_FLOOR
    # The combiner never loses to its own worst unsupervised member.
    for row in rows:
        worst = min(row["members"][name] for name in ("ewma", "lof", "rules"))
        assert row["ensemble_f1"] >= worst - 1e-9, row["scenario"]


def _bench_json() -> dict:
    """BENCH_detectors.json as committed (keeps its ``throughput`` rows)."""
    path = REPO_ROOT / "BENCH_detectors.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _throughput_once() -> None:
    """One timed replay of the throughput stream in this process; prints
    its records/s and CPU ms per 1,000 records."""
    from repro.logs.generator import LogGenerator
    from repro.runtime import InferenceRuntime

    streams = [
        LogGenerator(system, seed=SEED * 1009 + index,
                     scenario="volume-burst").generate(
                         THROUGHPUT_RECORDS_PER_SYSTEM)
        for index, system in enumerate(THROUGHPUT_SYSTEMS)
    ]
    records = list(heapq.merge(*streams, key=lambda record: record.timestamp))
    registry = MetricsRegistry()
    ensemble = ensemble_from_spec(DEFAULT_DETECTORS_SPEC, registry=registry)
    runtime = InferenceRuntime.from_ensemble(
        ensemble, window=WINDOW, step=STEP, max_batch=THROUGHPUT_MAX_BATCH,
        registry=registry)
    wall, cpu = time.perf_counter(), time.process_time()
    for record in records:
        runtime.submit(record)
    runtime.drain()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    runtime.stop()
    print(json.dumps({"records_per_s": len(records) / wall,
                      "cpu_ms_per_krec": cpu * 1e6 / len(records)}))


def _throughput(label: str) -> None:
    """Median of THROUGHPUT_RUNS fresh-process replays, stored as ``label``."""
    runs = []
    for _ in range(THROUGHPUT_RUNS):
        done = subprocess.run(
            [sys.executable, __file__, "--throughput-once"],
            check=True, capture_output=True, text=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    rates = [run["records_per_s"] for run in runs]
    costs = [run["cpu_ms_per_krec"] for run in runs]
    row = {
        "label": label,
        "nproc": os.cpu_count() or 1,
        "runs": THROUGHPUT_RUNS,
        "records_per_s_median": round(statistics.median(rates)),
        "records_per_s": [round(value) for value in rates],
        "cpu_ms_per_krec_median": round(statistics.median(costs), 2),
        "cpu_ms_per_krec": [round(value, 2) for value in costs],
    }
    print(json.dumps(row))
    payload = _bench_json()
    section = payload.setdefault("throughput", {
        "workload": (f"InferenceRuntime.from_ensemble({DEFAULT_DETECTORS_SPEC}), "
                     "sync, 1 shard, no fitted pipeline, window "
                     f"{WINDOW} step {STEP}, max_batch {THROUGHPUT_MAX_BATCH}; "
                     f"{len(THROUGHPUT_SYSTEMS)} systems x "
                     f"{THROUGHPUT_RECORDS_PER_SYSTEM} volume-burst records "
                     "merged by timestamp; median of fresh processes"),
        "rows": [],
    })
    section["rows"] = [r for r in section["rows"] if r["label"] != label]
    section["rows"].append(row)
    emit_json("detectors", payload)


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    elif "--throughput-once" in sys.argv:
        _throughput_once()
    elif "--throughput" in sys.argv:
        _throughput(sys.argv[sys.argv.index("--throughput") + 1])
    else:
        test_detector_portfolio()
