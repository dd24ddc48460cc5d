"""Replay-stage costs of a fitted model: admission and the batched forward.

Times the two stages that dominate a model replay, each over a freshly
loaded pipeline, as a fresh serving process would run them:

* **admission** — ``LogSynergy.event_id_of`` on every record of a
  replay-model-shaped stream (six systems merged by timestamp,
  ``repeat_probability`` 0.55, STREAM_RECORDS records): the per-system
  Drain parse, masking and the event-embedding lookup.  Reported in µs
  per record (CPU time).
* **forward** — ``LogSynergyModel.predict_proba`` on FORWARD_BATCH
  windows, in µs per window (CPU time, median of FORWARD_REPS calls).

One pipeline is fitted (the FAST_CONFIG widths, 6 epochs; sources bgl
and spirit, target thunderbird) and saved to a temporary directory.
Every trial is a new process that loads it once per stream.

``--parent-src DIR`` interleaves TRIALS trials of this checkout with
TRIALS trials of a second source tree (the parent commit's ``src``),
alternating which side goes first, and stores both medians and their
ratio as the ``replay_stages`` block of BENCH_runtime.json, tagged with
the core count and the commits of both trees.  ``--smoke`` runs one
short trial of this checkout and writes nothing (scripts/smoke.sh)::

    PYTHONPATH=src python benchmarks/bench_replay_stages.py --parent-src ../parent/src
    PYTHONPATH=src python benchmarks/bench_replay_stages.py --smoke
"""

from __future__ import annotations

import heapq
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ("bgl", "spirit", "thunderbird", "system_a", "system_b", "system_c")
STREAM_RECORDS = 1575
STREAMS = 6
FORWARD_BATCH = 15
FORWARD_REPS = 300
WINDOW = 10
STEP = 5
TRIALS = 10


def _fit(directory: str) -> None:
    """Fit and save the pipeline every trial loads."""
    from repro.config import LogSynergyConfig
    from repro.core import LogSynergy
    from repro.logs import LogGenerator, sliding_windows

    def sequences(system: str, count: int, offset: int):
        records = LogGenerator(system, seed=offset).generate(
            (count - 1) * STEP + WINDOW)
        return sliding_windows(records, window=WINDOW, step=STEP)[:count]

    config = LogSynergyConfig(
        d_model=32, num_heads=4, num_layers=2, d_ff=64, feature_dim=16,
        embedding_dim=64, epochs=6, batch_size=64, learning_rate=5e-4,
    )
    sources = {"bgl": sequences("bgl", 200, 0), "spirit": sequences("spirit", 200, 1)}
    pipeline = LogSynergy(config)
    pipeline.fit(sources, "thunderbird", sequences("thunderbird", 40, 2))
    pipeline.save_pipeline(directory)


def _stream(part: int) -> list:
    from repro.logs import LogGenerator

    per_system = STREAM_RECORDS // len(SYSTEMS)
    streams = [
        LogGenerator(system, seed=(part + 1) * 7919 + index,
                     repeat_probability=0.55).generate(per_system)
        for index, system in enumerate(SYSTEMS)
    ]
    return list(heapq.merge(*streams, key=lambda record: record.timestamp))


def _trial(model_dir: str, streams: int, reps: int) -> dict:
    """One trial in this process: admission over ``streams`` fresh
    pipelines, then ``reps`` forwards of the last one."""
    from repro.core import LogSynergy

    admission = []
    pipeline = None
    for part in range(streams):
        records = _stream(part)
        pipeline = LogSynergy.load_pipeline(model_dir)
        start = time.process_time()
        for record in records:
            pipeline.event_id_of(record.system, record.message.strip())
        admission.append((time.process_time() - start) * 1e6 / len(records))
    model = pipeline.model
    batch = np.random.default_rng(0).standard_normal(
        (FORWARD_BATCH, WINDOW, pipeline.config.embedding_dim)).astype(np.float32)
    model.predict_proba(batch)
    forward = []
    for _ in range(reps):
        start = time.process_time()
        model.predict_proba(batch)
        forward.append((time.process_time() - start) * 1e6 / FORWARD_BATCH)
    return {"admission_us_per_record": statistics.median(admission),
            "forward_us_per_window": statistics.median(forward)}


def _run_trial(src: Path, model_dir: str) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--trial", model_dir],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(done.stdout.strip().splitlines()[-1])


def _commit(src: Path) -> str:
    done = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def _compare(parent_src: Path) -> None:
    change_src = REPO_ROOT / "src"
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as model_dir:
        _fit(model_dir)
        for trial in range(TRIALS):
            order = ["parent", "change"] if trial % 2 == 0 else ["change", "parent"]
            for side in order:
                src = parent_src if side == "parent" else change_src
                runs[side].append(_run_trial(src, model_dir))
                print(side, json.dumps(runs[side][-1]), flush=True)

    def stage(key: str) -> dict:
        parent = statistics.median(run[key] for run in runs["parent"])
        change = statistics.median(run[key] for run in runs["change"])
        wins = sum(c[key] < p[key] for p, c in zip(runs["parent"], runs["change"]))
        return {"parent": round(parent, 2), "change": round(change, 2),
                "ratio": round(change / parent, 3), "change_wins": wins}

    block = {
        "workload": (f"fresh pipeline per stream; {len(SYSTEMS)} systems x "
                     f"{STREAM_RECORDS // len(SYSTEMS)} records, repeat 0.55, "
                     f"{STREAMS} streams per trial; predict_proba at batch "
                     f"{FORWARD_BATCH} x window {WINDOW}; CPU time; medians "
                     f"of {TRIALS} interleaved trials per side"),
        "nproc": os.cpu_count() or 1,
        "commit": _commit(change_src),
        "parent_commit": _commit(parent_src),
        "admission_us_per_record": stage("admission_us_per_record"),
        "predict_proba_us_per_window": stage("forward_us_per_window"),
    }
    print(json.dumps(block, indent=2))
    path = REPO_ROOT / "BENCH_runtime.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["replay_stages"] = block
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def smoke() -> None:
    with tempfile.TemporaryDirectory() as model_dir:
        _fit(model_dir)
        result = _trial(model_dir, streams=1, reps=5)
    print(json.dumps(result))
    assert all(value > 0 for value in result.values()), result


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    elif "--trial" in sys.argv:
        model_dir = sys.argv[sys.argv.index("--trial") + 1]
        print(json.dumps(_trial(model_dir, STREAMS, FORWARD_REPS)))
    elif "--parent-src" in sys.argv:
        _compare(Path(sys.argv[sys.argv.index("--parent-src") + 1]).resolve())
    else:
        sys.exit(__doc__)
