"""The serving process: load fitted pipelines, serve one workload's stream
through the public runtime API, check the outputs, write a JSON result.

Started by ``run.py`` once per pass.  Untraced, it serves one pass over
one fitted pipeline; traced (``--trace 1``), it fits in-process under the
span wrappers, serves one untraced and one traced pass, and derives the
per-layer figures.  Usage::

    python3 perfbench/serve.py --workload replay-model --seed 1 --part 0 \
        --seconds 20 --passes 4 --pipeline <dir> --reference --out result.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stats  # noqa: E402
import workloads as W  # noqa: E402

# A paced run is invalid when the sender falls behind its schedule or the
# system leaves a backlog to drain: the offered rate was then not served.
MAX_TAIL_LATENESS_S = 0.1
MAX_DRAIN_S = 1.0
# Tokens shaped like log lines, for the string half of the calibration.
CALIBRATION_LINES = tuple(f"node-{i % 7} core.{i % 13} ecc error count {i}"
                          for i in range(100))


def calibration_ms() -> float:
    """One timing of a fixed pure-Python loop, half integer arithmetic and
    half the tokenize/mask/count string work parsing does: how fast this
    host runs interpreter code right now.  Timed next to every stream
    phase, so ``run.py`` can scale the capacity metrics to a nominal host
    speed."""
    start = time.perf_counter()
    value = 1
    for _ in range(15_000):
        value = (value * 1103515245 + 12345) % 2147483648
    counts: dict[str, int] = {}
    for _ in range(10):
        for line in CALIBRATION_LINES:
            tokens = line.split()
            key = " ".join("<*>" if token[-1].isdigit() else token for token in tokens)
            counts[key] = counts.get(key, 0) + len(tokens)
    return (time.perf_counter() - start) * 1e3


def ref_loop_ms() -> float:
    """Median of three calibration timings, for the host line."""
    return stats.median([calibration_ms() for _ in range(3)])


class Alerts:
    """``on_report`` sink: window id, emission time and verdict."""

    def __init__(self):
        self.seen: list[tuple[str, float, bool]] = []

    def on_report(self, report) -> None:
        self.seen.append((report.metadata.get("window_id"),
                          time.perf_counter(), bool(report.is_anomalous)))


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def build_runtime(workload: W.Workload, pipeline, seed: int, alerts: Alerts,
                  paced: bool):
    """The workload's runtime over a loaded pipeline.  Returns
    ``(runtime, ensemble)``; ``ensemble`` is None for model workers."""
    from repro.obs import MetricsRegistry
    from repro.runtime import InferenceRuntime

    common = dict(shards=workload.shards, window=W.WINDOW, step=W.STEP,
                  max_batch=W.MAX_BATCH,
                  max_latency=W.MAX_LATENCY if paced else None,
                  backpressure="block", on_report=alerts.on_report,
                  registry=MetricsRegistry())
    if workload.worker == "ensemble":
        from repro.detectors import ensemble_from_spec

        ensemble = ensemble_from_spec(W.DETECTORS, pipeline=pipeline, seed=seed,
                                      registry=MetricsRegistry())
        return InferenceRuntime.from_ensemble(ensemble, **common), ensemble
    if workload.executor == "process":
        common["executor"] = "process"
    return InferenceRuntime.from_model(pipeline, **common), None


def load_and_build(workload, pipeline_dir, seed, paced: bool):
    """Set-up after the fit: load the pipeline, build the runtime, start
    the executor.  Returns ``(runtime, ensemble, alerts, seconds,
    build_seconds)``, the last without the load."""
    from repro.core import LogSynergy
    from repro.embedding.pretrained import load_pretrained_encoder

    # Every pass starts as cold as a fresh serving process: the encoder
    # (and its token cache) is otherwise memoized process-wide.
    load_pretrained_encoder.cache_clear()
    alerts = Alerts()
    start = time.perf_counter()
    pipeline = LogSynergy.load_pipeline(pipeline_dir)
    loaded = time.perf_counter()
    runtime, ensemble = build_runtime(workload, pipeline, seed, alerts, paced)
    if runtime.executor == "process":
        runtime.start()
    done = time.perf_counter()
    return runtime, ensemble, alerts, done - start, done - loaded


def render(reports) -> str:
    from repro.runtime import replay

    # Through the module, so the traced run's wrapper sees the call.
    return replay.render_reports(reports)


def replay_phase(runtime, records, root=None) -> dict:
    """Closed loop: submit the whole stream, drain, render."""
    cpu = time.process_time()
    start = time.perf_counter()
    if root is not None:
        span = root.open("bench.stream")
    for record in records:
        runtime.submit(record)
    reports = runtime.drain()
    if runtime.executor == "process":
        runtime.stop()
    text = render(reports)
    if root is not None:
        root.close(span)
    wall = time.perf_counter() - start
    return {"records": len(records), "wall_s": wall,
            "cpu_s": time.process_time() - cpu, "text": text,
            "children_cpu_s": 0.0}


def paced_phase(runtime, records, rate: float, root=None) -> dict:
    """Open loop: one sender sends record ``i`` at ``t0 + i / rate`` and
    never waits for the system; a sync runtime is pumped inline."""
    sync = runtime.executor == "sync"
    cpu = time.process_time()
    lateness = [0.0] * len(records)
    sleep_span = root is not None
    if root is not None:
        span = root.open("bench.stream")
    t0 = time.perf_counter() + 0.005
    for index, record in enumerate(records):
        due = t0 + index / rate
        now = time.perf_counter()
        if now < due:
            if sleep_span:
                sleep_index = root.open("loadgen.sleep")
            time.sleep(due - now)
            if sleep_span:
                root.close(sleep_index)
            now = time.perf_counter()
        lateness[index] = now - due
        runtime.submit(record)
        if sync:
            runtime.pump()
    last_sent = time.perf_counter()
    reports = runtime.drain() if sync else runtime.stop()
    text = render(reports)
    if root is not None:
        root.close(span)
    end = time.perf_counter()
    return {"records": len(records), "wall_s": end - t0,
            "cpu_s": time.process_time() - cpu, "text": text, "t0": t0,
            "lateness": lateness, "drain_s": end - last_sent}


def runtime_counts(runtime, ensemble) -> dict:
    s = runtime.stats
    metric = runtime.registry.metrics()

    def value(name):
        # The flat counter plus the per-shard ones shard processes ship home.
        return sum(found.value for key, found in metric.items()
                   if key == f"runtime.{name}"
                   or key.startswith(f"runtime.{name}.shard"))

    counts = {
        "windows_seen": s.windows_seen, "library_hits": s.library_hits,
        "model_invocations": s.model_invocations, "batches": s.batches,
        "degraded": s.degraded_windows,
        "shed": s.records_rejected + s.records_dropped,
        "worker_failures": s.worker_failures,
        "worker_retries": int(value("worker_retries")),
        "shard_errors": len(runtime.shard_errors),
        "proc_deaths": int(value("proc.deaths")),
        "proc_restarts": int(value("proc.restarts")),
        "proc_spawn_failures": int(value("proc.spawn_failures")),
        "broadcast_bytes": int(value("proc.broadcast_bytes")),
        "detector_errors": {},
    }
    if ensemble is not None:
        counts["detector_errors"] = {
            name: ensemble.member_error_count(name)
            for name in ("ewma", "lof", "rules", "model")}
    return counts


def check_phase(label: str, phase: dict, counts: dict, index: dict,
                alerts: Alerts, rate: float | None) -> list[str]:
    """Output checks of one phase; returns the failures."""
    failures = []
    if counts["windows_seen"] != len(index):
        failures.append(f"{label}: windows_seen {counts['windows_seen']} != "
                        f"{len(index)} the stream implies")
    if counts["shed"]:
        failures.append(f"{label}: {counts['shed']} records shed under block")
    errors = (counts["shard_errors"] + counts["proc_deaths"]
              + counts["proc_restarts"] + counts["proc_spawn_failures"]
              + counts["worker_failures"])
    if errors:
        failures.append(f"{label}: shard errors {counts}")
    unknown = [wid for wid, _t, _a in alerts.seen if wid not in index]
    if unknown:
        failures.append(f"{label}: report window ids not in stream: {unknown[:3]}")
    if rate is not None:
        late = phase["lateness"]
        tail = stats.median(late[-max(1, len(late) // 5):])
        if tail > MAX_TAIL_LATENESS_S:
            failures.append(f"{label}: invalid, sender {tail * 1e3:.0f} ms "
                            "behind schedule at the end")
        if phase["drain_s"] > MAX_DRAIN_S:
            failures.append(f"{label}: invalid, backlog took "
                            f"{phase['drain_s']:.2f}s to drain")
    return failures


def verdict_digest(text: str, windows=None) -> str:
    """Digest of which windows alerted, without the scores: under the
    latency trigger batch composition depends on timing, and float32
    scores move in their last digits with it.  ``windows`` restricts it
    to those window ids."""
    verdicts = []
    for line in text.splitlines():
        report = json.loads(line)
        if windows is None or report["window_id"] in windows:
            verdicts.append(f"{report['window_id']} {report['anomalous']} "
                            f"{report['degraded']}")
    return hashlib.sha256("\n".join(verdicts).encode()).hexdigest()


def summarize(label, phase, runtime, ensemble, alerts, index, rate) -> dict:
    """Everything ``run.py`` needs from one phase, JSON-ready."""
    counts = runtime_counts(runtime, ensemble)
    alerted = {wid for wid, _t, anomalous in alerts.seen if anomalous}
    truth = {wid for wid, (_last, anomalous) in index.items() if anomalous}
    out = {
        "records": phase["records"], "windows": len(index),
        "wall_s": phase["wall_s"], "cpu_s": phase["cpu_s"],
        "children_cpu_s": phase.get("children_cpu_s", 0.0),
        "digest": hashlib.sha256(phase["text"].encode()).hexdigest(),
        "verdicts": verdict_digest(phase["text"]),
        "reports": phase["text"].count("\n"),
        "alert_f1": stats.alert_f1(alerted, truth),
        "counts": counts,
        "failures": check_phase(label, phase, counts, index, alerts, rate),
    }
    if rate is not None:
        t0 = phase["t0"]
        out["latencies_s"] = [emitted - (t0 + index[wid][0] / rate)
                              for wid, emitted, _a in alerts.seen if wid in index]
        out["lateness_s"] = phase["lateness"]
        out["drain_s"] = phase["drain_s"]
    return out


def serve_pass(workload, pipeline_dir, seed, number: int,
               sizes: W.PassSizes) -> dict:
    """One untraced pass: set-up, then the workload's stream phases.

    A replay workload replays its first stream, then alternates paced
    phases over that stream's first ``sizes.paced`` records with replays
    of ``sizes.replays - 2`` streams of its own, then replays the first
    stream again.  Each replay is one capacity sample over a freshly
    loaded pipeline.  The first and last replays must render the same
    bytes, and their verdicts on the paced prefix's windows must match
    every paced phase's: those windows see the same stream up to the end
    of the prefix.  The calibration loop is timed before every stream
    phase and after the last, while no shard process runs.
    """
    base = number * W.PARTS_PER_PASS
    first = W.make_stream(workload, seed, sizes.first, part=base)
    paced_records = first[:sizes.paced]
    paced_index = stats.window_index(paced_records, W.WINDOW, W.STEP)
    result = {"replay": [], "paced": [], "calibration_ms": [], "failures": []}

    def replay(records) -> dict:
        runtime, ensemble, alerts, setup, _ = load_and_build(
            workload, pipeline_dir, seed, paced=False)
        result.setdefault("setup_s", setup)
        result["calibration_ms"].append(calibration_ms())
        phase = replay_phase(runtime, records)
        summary = summarize("replay", phase, runtime, ensemble, alerts,
                            stats.window_index(records, W.WINDOW, W.STEP), None)
        summary["paced_verdicts"] = verdict_digest(phase["text"], paced_index)
        result["replay"].append(summary)
        return summary

    def paced() -> None:
        # Before the build: under the process executor, the shard
        # processes would compete with the calibration loop.
        result["calibration_ms"].append(calibration_ms())
        runtime, ensemble, alerts, setup, _ = load_and_build(
            workload, pipeline_dir, seed, paced=True)
        result.setdefault("setup_s", setup)
        children = children_cpu_s()
        phase = paced_phase(runtime, paced_records, workload.paced_rate)
        phase["children_cpu_s"] = children_cpu_s() - children
        result["paced"].append(summarize("paced", phase, runtime, ensemble, alerts,
                                         paced_index, workload.paced_rate))

    if not workload.replay:
        for _ in range(workload.paced_phases):
            paced()
    else:
        opening = replay(first)
        middle = list(range(1, sizes.replays - 1))
        turns = workload.paced_phases
        for turn in range(turns):
            paced()
            for k in middle[len(middle) * turn // turns:len(middle) * (turn + 1) // turns]:
                replay(W.make_stream(workload, seed, sizes.replay, part=base + k))
        closing = replay(first)
        if opening["digest"] != closing["digest"]:
            result["failures"].append("two replays of one stream render differently")
        if any(opening["paced_verdicts"] != one["verdicts"] for one in result["paced"]):
            result["failures"].append("replay and paced phases alert on "
                                      "different windows")
    result["calibration_ms"].append(calibration_ms())
    return result


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped shard
    process (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0,
                        help="which pass of the run this is")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, required=True,
                        help="passes of the run, which share --seconds")
    parser.add_argument("--pipeline", help="fitted pipeline directory")
    parser.add_argument("--reference", action="store_true",
                        help="also replay the fixed reference stream")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", default=None,
                        help="directory for the traced fit and the span file")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import numpy

    workload = W.WORKLOADS[args.workload]
    sizes = W.pass_sizes(workload, args.seconds, args.passes)
    result = {
        "host": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                 "ref_loop_ms": ref_loop_ms()},
    }
    if args.trace:
        from traced import traced_run

        # A replay workload traces a stream of two first streams' length.
        records = W.make_stream(workload, args.seed, 2 * sizes.first
                                if workload.replay else sizes.paced)
        result["trace"] = traced_run(workload, args.seed, records,
                                     sizes.paced, Path(args.work))
    else:
        result["pass"] = serve_pass(workload, args.pipeline, args.seed,
                                    args.part, sizes)
    result["peak_rss_mb"] = peak_rss_mb()
    if args.reference:
        # Alert F1 is scored on the fixed reference stream, replayed with
        # no latency trigger, so it is the same on every run.
        reference = W.make_stream(workload, None, sizes.first)
        runtime, ensemble, alerts, _, _ = load_and_build(
            workload, args.pipeline, args.seed, paced=False)
        phase = replay_phase(runtime, reference)
        result["reference"] = summarize(
            "reference", phase, runtime, ensemble, alerts,
            stats.window_index(reference, W.WINDOW, W.STEP), None)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
