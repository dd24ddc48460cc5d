"""Alert latency under the serving budget: paced sync model and ensemble streams.

Serves two open-loop streams through a sync ``InferenceRuntime`` with
perfbench's settings (window 10, step 5, ``max_batch`` 16, a 50 ms
``max_latency``), each over a freshly loaded pipeline:

* **model** — a fitted LogSynergy model (``InferenceRuntime.from_model``)
  on a six-system stream (``repeat_probability`` 0.55) at 700 records/s;
* **ensemble** — the ``ewma,lof,rules,model:max`` ensemble
  (``InferenceRuntime.from_ensemble``) on a volume-burst stream at
  350 records/s.

One sender submits record ``i`` at ``t0 + i / rate`` and sleeps only
when it is early.  A window's latency runs from the submit of its last
record to the ``on_report`` call that emits it, so scoring is included.
Per stream the script reports exact p50/p90/max latency over every
alert, the share of alerts past the budget, and scored batches per
second of stream.

The pipeline is the FAST_CONFIG-width fit of ``bench_replay_stages.py``.
``--parent-src DIR`` alternates TRIALS fresh-process trials of this
checkout with TRIALS of a second source tree (the parent commit's
``src``), pools each side's alerts, and stores both as the
``latency_budget`` block of BENCH_runtime.json, tagged with the core
count and the commits of both trees.  ``--smoke`` runs one short trial
of this checkout and writes nothing (scripts/smoke.sh)::

    PYTHONPATH=src python benchmarks/bench_latency_budget.py --parent-src ../parent/src
    PYTHONPATH=src python benchmarks/bench_latency_budget.py --smoke
"""

from __future__ import annotations

import heapq
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_replay_stages import SYSTEMS, STEP, WINDOW, _commit, _fit

REPO_ROOT = Path(__file__).resolve().parent.parent
MAX_BATCH = 16
MAX_LATENCY = 0.05
DETECTORS = "ewma,lof,rules,model:max"
# (rate in records/s, repeat_probability, scenario) of perfbench's
# replay-model and ensemble-burst paced phases.
STREAMS = {
    "model": (700.0, 0.55, None),
    "ensemble": (350.0, 0.55, "volume-burst"),
}
STREAM_SECONDS = 4.0
SMOKE_SECONDS = 0.6
TRIALS = 5


def _stream(rate: float, repeat: float, scenario, seconds: float,
            seed: int) -> list:
    from repro.logs import LogGenerator

    per_system = int(rate * seconds) // len(SYSTEMS)
    streams = [
        LogGenerator(system, seed=seed * 7919 + index,
                     repeat_probability=repeat,
                     scenario=scenario).generate(per_system)
        for index, system in enumerate(SYSTEMS)
    ]
    return list(heapq.merge(*streams, key=lambda record: record.timestamp))


def _last_records(records: list) -> dict[str, int]:
    """Window id -> stream position of the record that completes it."""
    seen: dict[str, int] = {}
    last = {}
    for position, record in enumerate(records):
        count = seen.get(record.system, 0) + 1
        seen[record.system] = count
        if count >= WINDOW and (count - WINDOW) % STEP == 0:
            last[f"{record.system}:{(count - WINDOW) // STEP}"] = position
    return last


def _serve(kind: str, model_dir: str, seconds: float, seed: int) -> dict:
    """One paced stream over a freshly loaded pipeline."""
    from repro.core import LogSynergy
    from repro.obs import MetricsRegistry
    from repro.runtime import InferenceRuntime

    rate, repeat, scenario = STREAMS[kind]
    records = _stream(rate, repeat, scenario, seconds, seed)
    last = _last_records(records)
    pipeline = LogSynergy.load_pipeline(model_dir)
    emitted: list[tuple[str, float]] = []
    options = dict(window=WINDOW, step=STEP, max_batch=MAX_BATCH,
                   max_latency=MAX_LATENCY, registry=MetricsRegistry(),
                   on_report=lambda report: emitted.append(
                       (report.metadata["window_id"], time.perf_counter())))
    if kind == "ensemble":
        from repro.detectors import ensemble_from_spec

        ensemble = ensemble_from_spec(DETECTORS, pipeline=pipeline, seed=seed,
                                      registry=MetricsRegistry())
        runtime = InferenceRuntime.from_ensemble(ensemble, **options)
    else:
        runtime = InferenceRuntime.from_model(pipeline, **options)
    submitted = [0.0] * len(records)
    t0 = time.perf_counter() + 0.005
    for position, record in enumerate(records):
        due = t0 + position / rate
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        submitted[position] = time.perf_counter()
        runtime.submit(record)
    wall = time.perf_counter() - t0
    # Only what the latency trigger emitted: the drain at the end of the
    # stream answers to no budget.
    latencies = [at - submitted[last[window]] for window, at in emitted]
    runtime.drain()
    return {"latencies_s": latencies, "batches": runtime.stats.batches,
            "wall_s": wall}


def _trial(model_dir: str, seconds: float, seed: int) -> dict:
    return {kind: _serve(kind, model_dir, seconds, seed) for kind in STREAMS}


def _summary(runs: list[dict]) -> dict:
    latencies = np.array([value for run in runs for value in run["latencies_s"]])
    batches = sum(run["batches"] for run in runs)
    wall = sum(run["wall_s"] for run in runs)
    if latencies.size == 0:
        return {"alerts": 0, "flushes_per_s": round(batches / wall, 2)}
    return {
        "alerts": int(latencies.size),
        "p50_ms": round(float(np.quantile(latencies, 0.5)) * 1e3, 2),
        "p90_ms": round(float(np.quantile(latencies, 0.9)) * 1e3, 2),
        "max_ms": round(float(latencies.max()) * 1e3, 2),
        "late_share": round(float(np.mean(latencies > MAX_LATENCY)), 4),
        "flushes_per_s": round(batches / wall, 2),
    }


def _run_trial(src: Path, model_dir: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--trial", model_dir, str(seed)],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(done.stdout.strip().splitlines()[-1])


def _compare(parent_src: Path) -> None:
    change_src = REPO_ROOT / "src"
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as model_dir:
        _fit(model_dir)
        for trial in range(TRIALS):
            order = ["parent", "change"] if trial % 2 == 0 else ["change", "parent"]
            for side in order:
                src = parent_src if side == "parent" else change_src
                runs[side].append(_run_trial(src, model_dir, seed=trial + 1))
                print(side, {kind: _summary([runs[side][-1][kind]])
                             for kind in STREAMS}, flush=True)
    block = {
        "workload": (f"paced sync streams, {len(SYSTEMS)} systems, window "
                     f"{WINDOW} step {STEP}, max_batch {MAX_BATCH}, "
                     f"max_latency {MAX_LATENCY * 1e3:.0f} ms, "
                     f"{STREAM_SECONDS:.0f} s per stream; model at "
                     f"{STREAMS['model'][0]:.0f} records/s, {DETECTORS} on "
                     f"volume-burst at {STREAMS['ensemble'][0]:.0f} records/s; "
                     "latency from the submit of a window's last record to "
                     f"its report, pooled over {TRIALS} interleaved "
                     "fresh-process trials per side; flushes_per_s counts "
                     "scored batches"),
        "nproc": os.cpu_count() or 1,
        "commit": _commit(change_src),
        "parent_commit": _commit(parent_src),
        **{kind: {side: _summary([run[kind] for run in runs[side]])
                  for side in ("parent", "change")}
           for kind in STREAMS},
    }
    print(json.dumps(block, indent=2))
    path = REPO_ROOT / "BENCH_runtime.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["latency_budget"] = block
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def smoke() -> None:
    with tempfile.TemporaryDirectory() as model_dir:
        _fit(model_dir)
        result = _trial(model_dir, SMOKE_SECONDS, seed=1)
    summaries = {kind: _summary([result[kind]]) for kind in STREAMS}
    print(json.dumps(summaries))
    assert all(summary["flushes_per_s"] > 0 for summary in summaries.values()), \
        summaries


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    elif "--trial" in sys.argv:
        at = sys.argv.index("--trial")
        print(json.dumps(_trial(sys.argv[at + 1], STREAM_SECONDS,
                                int(sys.argv[at + 2]))))
    elif "--parent-src" in sys.argv:
        _compare(Path(sys.argv[sys.argv.index("--parent-src") + 1]).resolve())
    else:
        sys.exit(__doc__)
