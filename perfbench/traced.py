"""The traced run: per-layer figures for one workload.

Fits in-process under the span wrappers (set-up layers), serves the
workload's main phase once untraced and once traced, and turns the spans
into the ``per_layer`` metrics of ``BENCHMARK.json``.  A layer the
workload does not run reports 0.
"""

from __future__ import annotations

import json
from pathlib import Path

import stats
import workloads as W
from serve import load_and_build, paced_phase, replay_phase, summarize
from tracing import SpanRecorder, aggregate, install, uninstall

MEMBERS = ("ewma", "lof", "rules", "model")


def _main_phase(workload, runtime, records, root=None) -> dict:
    if workload.replay:
        return replay_phase(runtime, records, root)
    return paced_phase(runtime, records, workload.paced_rate, root)


def _traced_fit(recorder, directory: Path):
    from repro.core import LogSynergy

    sources, target = W.fit_inputs()
    saved = install(recorder)
    try:
        pipeline = LogSynergy(W.fit_config())
        pipeline.fit(sources, W.TARGET, target)
    finally:
        uninstall(saved)
    pipeline.save_pipeline(str(directory))


def traced_run(workload, seed: int, records, paced_records: int,
               work: Path) -> dict:
    """The workload's main phase serves ``records``; the replay workloads'
    paced phase, run for sender lateness, serves the first
    ``paced_records`` of them."""
    work.mkdir(parents=True, exist_ok=True)
    index = stats.window_index(records, W.WINDOW, W.STEP)
    directory = work / f"traced-{workload.name}"
    recorder = SpanRecorder()
    _traced_fit(recorder, directory)
    fit_spans = recorder.spans
    fit = aggregate(fit_spans)
    recorder.reset()

    rate = None if workload.replay else workload.paced_rate
    runtime, ensemble, alerts, _setup, build_s = load_and_build(
        workload, directory, seed, paced=not workload.replay)
    untraced = _main_phase(workload, runtime, records)
    summaries = [summarize("untraced", untraced, runtime, ensemble, alerts,
                           index, rate)]
    if workload.replay:
        # The replay workloads' paced phase, for sender lateness.
        runtime, ensemble, alerts, _, _ = load_and_build(
            workload, directory, seed, paced=True)
        phase = paced_phase(runtime, records[:paced_records], workload.paced_rate)
        summaries.append(summarize(
            "paced", phase, runtime, ensemble, alerts,
            stats.window_index(records[:paced_records], W.WINDOW, W.STEP),
            workload.paced_rate))
    paced = summaries[-1]

    runtime, ensemble, alerts, _, _ = load_and_build(
        workload, directory, seed, paced=not workload.replay)
    saved = install(recorder)
    try:
        traced = _main_phase(workload, runtime, records, root=recorder)
    finally:
        uninstall(saved)
    summary = summarize("traced", traced, runtime, ensemble, alerts, index, rate)
    summaries.append(summary)
    failures = [failure for s in summaries for failure in s["failures"]]
    if len({summaries[0]["verdicts"], summaries[-1]["verdicts"]}) != 1:
        failures.append("untraced and traced phases alert on different windows")
    stream = aggregate(recorder.spans)
    (work / f"spans-{workload.name}.json").write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "size"],
        "fit": fit_spans, "stream": recorder.spans,
    }), encoding="utf-8")

    root = stream["bench.stream"]
    attributed = sum(times.self_time for times in stream.values())
    if abs(attributed - root.total) > 1e-6 * root.total:
        failures.append(f"self times sum to {attributed:.6f}s, traced wall "
                        f"is {root.total:.6f}s")

    counts = summary["counts"]
    n_krec = len(records) / 1000.0
    n_windows = len(index)

    def count(*names):
        return sum(stream[n].count for n in names if n in stream)

    def self_s(*names):
        return sum(stream[n].self_time for n in names if n in stream)

    def total_s(*names):
        return sum(stream[n].total for n in names if n in stream)

    def layer_self(prefix):
        return sum(t.self_time for n, t in stream.items() if n.startswith(prefix))

    def per_krec(seconds):
        return seconds * 1e3 / n_krec

    forwards = count("model.predict_proba")
    fit_s = fit["trainer.fit"].total
    features = ("features.event_id_of", "features.embed_messages")
    offline = ("features.parse_sequences", "features.interpret_events",
               "features.embed_events")
    lateness = paced["lateness_s"]
    metrics = {
        "parsing.calls_per_record": count("parsing.ingest") / len(records),
        "parsing.ms_per_krec": per_krec(self_s("parsing.ingest")),
        "parsing.stream_share": self_s("parsing.ingest") / root.total,
        "features.calls_per_window": count(*features) / n_windows,
        "features.self_ms_per_krec": per_krec(self_s(*features)),
        "llm.interpret_calls": (fit["llm.interpret_event"].count
                                + count("llm.interpret_event")),
        "llm.interpret_s": (fit["llm.interpret_event"].total
                            + total_s("llm.interpret_event")),
        "embedding.encode_calls_per_window": count("embedding.encode") / n_windows,
        "embedding.ms_per_krec": per_krec(self_s("embedding.encode")),
        "model.forward_calls": forwards,
        "model.windows_per_forward": (stream["model.predict_proba"].size / forwards
                                      if forwards else 0.0),
        "model.ms_per_krec": per_krec(total_s("model.predict_proba")),
        "pipeline.self_ms_per_krec": per_krec(self_s("pipeline.detect_stream_batch")),
    }
    for member in MEMBERS:
        metrics[f"detectors.{member}.ms_per_krec"] = per_krec(
            total_s(f"detectors.{member}"))
        metrics[f"detectors.{member}.errors"] = counts["detector_errors"].get(member, 0)
    metrics.update({
        "detectors.ensemble.self_ms_per_krec": per_krec(self_s("detectors.ensemble")),
        "runtime.submit_self_ms_per_krec": per_krec(layer_self("runtime.")),
        "runtime.gate_hit_ratio": counts["library_hits"] / counts["windows_seen"],
        "runtime.windows_per_batch": (counts["model_invocations"] / counts["batches"]
                                      if counts["batches"] else 0.0),
        "runtime.batches": counts["batches"],
        "runtime.worker_retries": counts["worker_retries"],
        "procexec.start_s": build_s if workload.executor == "process" else 0.0,
        "broadcast.bytes": counts["broadcast_bytes"],
        "procexec.submit_self_ms_per_krec": per_krec(layer_self("procexec.")),
        "procexec.restarts": counts["proc_restarts"],
        "report.ms_per_krec": per_krec(total_s("report.build")),
        "replay.render_ms": total_s("replay.render") * 1e3,
        "trainer.fit_s": fit_s,
        "trainer.seq_per_s": fit["trainer.fit"].size * W.FIT_EPOCHS / fit_s,
        "features.offline_s": sum(fit[n].total for n in offline),
        "loadgen.late_p99_ms": stats.exact_quantile(lateness, 0.99) * 1e3,
        "loadgen.alert_samples": len(paced["latencies_s"]),
        "trace.overhead_share": traced["cpu_s"] / untraced["cpu_s"] - 1.0,
        "trace.unattributed_share": root.self_time / root.total,
    })
    return {"metrics": metrics, "failures": failures,
            "attempted": sum(s["windows"] for s in summaries),
            "degraded": sum(s["counts"]["degraded"] for s in summaries)}
