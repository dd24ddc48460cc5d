"""Training-throughput benchmark: fused kernels vs the seed composition.

PR 4's fused BPTT/attention/loss nodes (repro.nn.kernels) exist to cut
the Python-graph overhead that dominates CPU training.  This benchmark
times the same fits with the fused kernels on and off
(``use_fused_kernels``) and reports sequences/second for:

* ``Trainer.fit`` on a synthetic LogSynergy workload (transformer
  encoder: fused attention + fused losses), and
* the recurrent registry baselines DeepLog / LogAnomaly / LogRobust
  fitted on the standard audit probe data (fused LSTM/BiLSTM BPTT).

Results print as a block, persist to benchmarks/results/, and land
machine-readable in BENCH_train.json at the repo root.

Acceptance bars: >= 2x sequences/second on the recurrent baselines and
>= 1.3x on LogSynergy ``Trainer.fit``.

``python benchmarks/bench_train_throughput.py --smoke`` runs a
seconds-scale LogSynergy-only sanity pass (scripts/smoke.sh) that writes
no result files.

``python benchmarks/bench_train_throughput.py --table4-fit LABEL`` times
the Table IV-budget pipeline fit (``LogSynergy.fit`` on bgl + spirit →
thunderbird, N_SOURCE per source, N_TARGET target sequences, FAST_CONFIG,
16 epochs) in TABLE4_FIT_RUNS fresh processes and stores the medians,
tagged with the core count, as row LABEL of ``table4_fit`` in
BENCH_train.json.  Run it on two commits to get a before/after pair.
"""

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from repro.analysis.audit import probe_data
from repro.baselines.registry import make_baseline
from repro.config import LogSynergyConfig
from repro.core import LogSynergyModel, LogSynergyTrainer, TrainingBatch
from repro.nn import use_fused_kernels

from common import FAST_CONFIG, N_SOURCE, N_TARGET, REPO_ROOT, emit, emit_json

# Injectable-clock idiom: referenced here, called only inside _time_fit.
_CLOCK = time.perf_counter

RECURRENT_MIN_SPEEDUP = 2.0
LOGSYNERGY_MIN_SPEEDUP = 1.3

TABLE4_FIT_RUNS = 5
TABLE4_FIT_SOURCES = ("bgl", "spirit")
TABLE4_FIT_TARGET = "thunderbird"

# Registry baselines whose training is dominated by recurrent BPTT,
# at the same reduced widths as common.BASELINE_KWARGS.  Eight epochs
# keep the timed region dominated by BPTT rather than the one-time
# Drain parse + encode that every fit pays identically in both modes.
RECURRENT_BASELINES = {
    "DeepLog": dict(epochs=8, hidden_size=32, num_layers=2, top_k=9),
    "LogAnomaly": dict(epochs=8, hidden_size=32, num_layers=2, top_k=9),
    "LogRobust": dict(epochs=8, hidden_size=32, num_layers=2),
}


def _logsynergy_config(smoke: bool) -> LogSynergyConfig:
    return LogSynergyConfig(
        d_model=32, num_heads=4, num_layers=1, d_ff=64, feature_dim=16,
        embedding_dim=32, epochs=1 if smoke else 2, batch_size=32,
        window=8, seed=0,
    )


def _synthetic_batch(config: LogSynergyConfig, count: int) -> TrainingBatch:
    rng = np.random.default_rng(config.seed)
    return TrainingBatch(
        sequences=rng.standard_normal(
            (count, config.window, config.embedding_dim)
        ).astype(np.float32),
        anomaly_labels=(rng.random(count) < 0.2).astype(np.float32),
        system_labels=rng.integers(0, 2, size=count),
        domain_labels=rng.integers(0, 2, size=count),
    )


def _time_fit(fit, fused: bool, repeats: int = 1, clock=_CLOCK) -> float:
    """Best-of-``repeats`` wall time for one full fit."""
    best = float("inf")
    with use_fused_kernels(fused):
        for _ in range(repeats):
            started = clock()
            fit()
            best = min(best, clock() - started)
    return best


def _time_pair(fit, repeats: int) -> dict:
    """Best-of-``repeats`` for both modes, interleaved.

    Alternating fused/unfused runs keeps both measurement windows exposed
    to the same CPU frequency/load drift, so the ratio is not biased by
    one mode monopolizing the warm (or cold) end of the benchmark.
    """
    times = {True: float("inf"), False: float("inf")}
    for _ in range(repeats):
        for fused in (True, False):
            times[fused] = min(times[fused], _time_fit(fit, fused))
    return times


def _row(name: str, sequences: int, times: dict) -> dict:
    fused_s, unfused_s = times[True], times[False]
    return {
        "workload": name,
        "sequences": sequences,
        "fused_seconds": round(fused_s, 4),
        "unfused_seconds": round(unfused_s, 4),
        "fused_seq_per_s": round(sequences / fused_s, 2),
        "unfused_seq_per_s": round(sequences / unfused_s, 2),
        "speedup": round(unfused_s / fused_s, 3),
    }


def _logsynergy_row(smoke: bool) -> dict:
    config = _logsynergy_config(smoke)
    count = 96 if smoke else 384
    data = _synthetic_batch(config, count)

    def fit():
        model = LogSynergyModel(config, num_systems=2)
        LogSynergyTrainer(model, config).fit(data)

    fit()  # warmup: absorbs first-call allocator/import costs
    times = _time_pair(fit, repeats=1 if smoke else 3)
    return _row("LogSynergy", count * config.epochs, times)


def _baseline_row(name: str, kwargs: dict, data) -> dict:
    sources, target, target_train = data
    sequences = sum(len(split) for split in sources.values()) + len(target_train)

    def fit():
        make_baseline(name, **kwargs).fit(sources, target, target_train)

    fit()  # warmup: first fit pays one-time parser/allocator costs
    times = _time_pair(fit, repeats=3)
    return _row(name, sequences * kwargs["epochs"], times)


def _format(rows: list[dict]) -> str:
    lines = [
        "Training-throughput benchmark (fused kernels vs seed composition)",
        f"bars: recurrent baselines >= {RECURRENT_MIN_SPEEDUP}x, "
        f"LogSynergy Trainer.fit >= {LOGSYNERGY_MIN_SPEEDUP}x",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<11}: {row['fused_seq_per_s']:>8,.1f} seq/s fused "
            f"vs {row['unfused_seq_per_s']:>8,.1f} unfused "
            f"({row['fused_seconds']:.2f}s vs {row['unfused_seconds']:.2f}s) "
            f"-> {row['speedup']:.2f}x"
        )
    return "\n".join(lines)


def test_train_throughput():
    rows = [_logsynergy_row(smoke=False)]
    data = probe_data(seed=0)
    for name, kwargs in RECURRENT_BASELINES.items():
        rows.append(_baseline_row(name, kwargs, data))

    emit("train_throughput", _format(rows))
    emit_json("train", {
        **_bench_json(),
        "benchmark": "train_throughput",
        "bars": {
            "recurrent_min_speedup": RECURRENT_MIN_SPEEDUP,
            "logsynergy_min_speedup": LOGSYNERGY_MIN_SPEEDUP,
        },
        "results": rows,
    })

    logsynergy = rows[0]
    assert logsynergy["speedup"] >= LOGSYNERGY_MIN_SPEEDUP, (
        f"LogSynergy fit speedup {logsynergy['speedup']:.2f}x "
        f"< {LOGSYNERGY_MIN_SPEEDUP}x"
    )
    for row in rows[1:]:
        assert row["speedup"] >= RECURRENT_MIN_SPEEDUP, (
            f"{row['workload']} speedup {row['speedup']:.2f}x "
            f"< {RECURRENT_MIN_SPEEDUP}x"
        )


def _smoke() -> int:
    row = _logsynergy_row(smoke=True)
    print(_format([row]))
    if row["speedup"] <= 0:
        print("smoke: non-positive speedup", file=sys.stderr)
        return 1
    return 0


def _bench_json() -> dict:
    """BENCH_train.json as committed (keeps its ``table4_fit`` rows)."""
    path = REPO_ROOT / "BENCH_train.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _table4_fit_once() -> None:
    """One Table IV-budget fit in this process; prints its seconds."""
    from repro.core import LogSynergy
    from repro.logs import LogGenerator, sliding_windows

    config = FAST_CONFIG

    def sequences(system: str, count: int, seed: int):
        records = LogGenerator(system, seed=seed).generate(
            (count - 1) * config.step + config.window)
        return sliding_windows(records, window=config.window,
                               step=config.step)[:count]

    sources = {name: sequences(name, N_SOURCE, seed)
               for seed, name in enumerate(TABLE4_FIT_SOURCES)}
    target = sequences(TABLE4_FIT_TARGET, N_TARGET, len(TABLE4_FIT_SOURCES))
    pipeline = LogSynergy(config)
    started = _CLOCK()
    pipeline.fit(sources, TABLE4_FIT_TARGET, target)
    print(json.dumps({"fit_s": _CLOCK() - started,
                      "steps": pipeline.trainer.global_step}))


def _table4_fit(label: str) -> None:
    """Median of TABLE4_FIT_RUNS fresh-process fits, stored as ``label``."""
    fit_s, process_s, steps = [], [], set()
    for _ in range(TABLE4_FIT_RUNS):
        started = _CLOCK()
        done = subprocess.run(
            [sys.executable, __file__, "--table4-fit-once"],
            check=True, capture_output=True, text=True)
        process_s.append(_CLOCK() - started)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        fit_s.append(result["fit_s"])
        steps.add(result["steps"])
    row = {
        "label": label,
        "nproc": os.cpu_count() or 1,
        "runs": TABLE4_FIT_RUNS,
        "fit_s_median": round(statistics.median(fit_s), 3),
        "fit_s": [round(value, 3) for value in fit_s],
        "process_s_median": round(statistics.median(process_s), 3),
        "steps": steps.pop() if len(steps) == 1 else sorted(steps),
    }
    print(json.dumps(row))
    payload = _bench_json()
    section = payload.setdefault("table4_fit", {
        "workload": (f"LogSynergy.fit {'+'.join(TABLE4_FIT_SOURCES)} -> "
                     f"{TABLE4_FIT_TARGET}, {N_SOURCE} sequences per source, "
                     f"{N_TARGET} target, FAST_CONFIG, {FAST_CONFIG.epochs} "
                     "epochs; median of fresh processes"),
        "rows": [],
    })
    section["rows"] = [r for r in section["rows"] if r["label"] != label]
    section["rows"].append(row)
    emit_json("train", payload)


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        sys.exit(_smoke())
    if "--table4-fit-once" in sys.argv[1:]:
        _table4_fit_once()
    elif "--table4-fit" in sys.argv[1:]:
        _table4_fit(sys.argv[sys.argv.index("--table4-fit") + 1])
    else:
        test_train_throughput()
