"""Serving benchmark: bring a new system online and serve it.

One command runs one workload and prints every metric with its unit; the
last line of standard output is the JSON result.  Run from the root of a
checkout::

    python3 perfbench/run.py --workload replay-model --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # all workloads, tiny, both modes

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics.  The exit code is non-zero
when an output check fails (``correct`` is then false).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads as W  # noqa: E402

PASSES = 4
CHILD_TIMEOUT_S = 170
# The calibration loop's time (``serve.calibration_ms``) on a quiet 2-core
# x86_64 host.  Capacity metrics are scaled to a host that runs the loop
# in this time; see README.md, "Host calibration".
CALIBRATION_NOMINAL_MS = 4.0
# How much the replays slow, in log terms, per unit the loop slows: 0.6
# to 1.0 across ten-run sets in which the host changed speed.
HOST_ELASTICITY = 0.75
# Forked shard processes must not each start a BLAS thread pool per core.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Keep temporary files (e.g. the weight-broadcast fallback) in the checkout.
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_child(args: list[str], env: dict) -> float:
    """Run a benchmark helper to completion; returns its wall time."""
    start = time.perf_counter()
    completed = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                               timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise RuntimeError(f"{args[0]} exited with {completed.returncode}")
    return elapsed


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end(workload, results: list[dict], fit_s: list[float],
               smoke: bool = False):
    """Medians over the run, pooled latencies, output checks.  A smoke run
    is too short to leave 10 alert samples beyond p90; it only notes it."""
    passes = [result["pass"] for result in results]
    references = [result["reference"] for result in results if "reference" in result]
    failures = [f"reference: {f}" for ref in references for f in ref["failures"]]
    if len({ref["digest"] for ref in references}) != 1:
        failures.append("reference replay renders differently from two fits")
    phases = []
    for number, one in enumerate(passes):
        mine = one["replay"] + one["paced"]
        failures += [f"pass {number}: {f}" for f in one["failures"]]
        for phase in mine:
            failures += [f"pass {number}: {f}" for f in phase["failures"]]
        phases += mine
    # Capacity: the median over every replay sample of the run (every
    # paced phase on serve-paced).  On the replay workloads, scaled by the
    # host's speed: the median calibration time over the same stretch of
    # the run.  serve-paced is not scaled: its achieved rate is set by its
    # sender, and its CPU, spent in shard processes on both cores, did
    # not follow the loop.
    samples = [phase for one in passes for phase in one["replay"] or one["paced"]]
    paced = [phase for one in passes for phase in one["paced"]]
    calibration = stats.median([ms for one in passes for ms in one["calibration_ms"]])
    scale = ((calibration / CALIBRATION_NOMINAL_MS) ** HOST_ELASTICITY
             if workload.replay else 1.0)
    rate = stats.median([phase["records"] / phase["wall_s"] for phase in samples])
    cpu = stats.median([(phase["cpu_s"] + phase["children_cpu_s"]) * 1e6
                        / phase["records"] for phase in samples])
    # Latency: pool the raw samples of the paced phases with the lowest
    # p90 (the faster half), then take exact quantiles of the pool.
    fastest = stats.faster_half(
        paced,
        key=lambda phase: stats.exact_quantile(phase["latencies_s"], 0.9)
        if phase["latencies_s"] else math.inf)
    latencies = [value for phase in fastest for value in phase["latencies_s"]]
    if not stats.supports_quantile(len(latencies), 0.9):
        message = (f"{len(latencies)} pooled alert latency samples leave "
                   f"fewer than {stats.MIN_SAMPLES_BEYOND} beyond p90")
        if smoke:
            print(f"note (smoke): {message}")
        else:
            failures.append(message)
    lateness = [value for phase in paced for value in phase["lateness_s"]]
    setups = [fit + one["setup_s"] for fit, one in zip(fit_s, passes)]
    metrics = {
        "setup_s": stats.median(stats.faster_half(setups)),
        "records_per_s": rate * scale,
        "cpu_ms_per_krec": cpu / scale,
        "alert_p50_ms": stats.exact_quantile(latencies, 0.5) * 1e3 if latencies else 0.0,
        "alert_p90_ms": stats.exact_quantile(latencies, 0.9) * 1e3 if latencies else 0.0,
        "alert_f1": references[0]["alert_f1"],
        "peak_rss_mb": stats.median([result["peak_rss_mb"] for result in results]),
    }
    windows = sum(phase["windows"] for phase in phases)
    sent = sum(phase["records"] for phase in phases)
    shed = sum(phase["counts"]["shed"] for phase in phases)
    degraded = sum(phase["counts"]["degraded"] for phase in phases)
    member_errors = sum(sum(phase["counts"]["detector_errors"].values())
                        for phase in phases)
    info = {
        "records_per_s.measured": (rate, "1/s"),
        "cpu_ms_per_krec.measured": (cpu, "ms/krec"),
        "calibration_ms": (calibration, "ms"),
        "capacity_samples": (len(samples), "count"),
        "alert_samples": (len(latencies), "count"),
        "shed_share": (shed / sent, "share"),
        "degraded_share": (degraded / windows, "share"),
        "detector_member_errors": (member_errors, "count"),
        "served_stream_alert_f1": ([phase["alert_f1"] for phase in paced], "share"),
        "loadgen.late_p99_ms": (stats.exact_quantile(lateness, 0.99) * 1e3, "ms"),
        "setup_s.passes": (setups, "s"),
        "host.ref_loop_ms": ([result["host"]["ref_loop_ms"] for result in results], "ms"),
        "reference_digest": (references[0]["digest"][:16], "sha256"),
    }
    accounting = {"attempted": windows, "failed": degraded + member_errors}
    return metrics, info, failures, accounting


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 passes: int = PASSES, smoke: bool = False) -> tuple[dict, int]:
    """Run one workload; prints its report and returns (result, exit code)."""
    workload = W.WORKLOADS[name]
    work = ROOT / ".perfbench-work" / f"{name}-{seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env(work)
    sizes = W.pass_sizes(workload, seconds, passes)
    sized = ["--seconds", str(seconds), "--passes", str(passes)]
    out = work / "result.json"
    spec = load_spec()
    try:
        if trace:
            run_child(["perfbench/serve.py", "--workload", name, "--seed", str(seed),
                       *sized, "--trace", "1",
                       "--work", str(ROOT / ".perfbench-work" / "trace"),
                       "--out", str(out)], env)
            result = json.loads(out.read_text(encoding="utf-8"))
            traced = result["trace"]
            metrics = traced["metrics"]
            failures = traced["failures"]
            accounting = {"attempted": traced["attempted"],
                          "failed": traced["degraded"]}
            info = {}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            fit_s, results = [], []
            for number in range(passes):
                # Fit and serve alternate, so set-up and stream samples
                # both spread over the whole run.
                directory = work / f"pipeline-{number}"
                fit_s.append(run_child(["perfbench/fit.py", "--out", str(directory)],
                                       env))
                out = work / f"result-{number}.json"
                run_child(["perfbench/serve.py", "--workload", name,
                           "--seed", str(seed), "--part", str(number),
                           *sized, "--pipeline", str(directory),
                           "--out", str(out)]
                          + (["--reference"] if number < 2 else []), env)
                results.append(json.loads(out.read_text(encoding="utf-8")))
                shutil.rmtree(directory, ignore_errors=True)
            result = results[0]
            metrics, info, failures, accounting = end_to_end(workload, results,
                                                             fit_s, smoke)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host = result["host"]
    print(f"workload {name}  seed {seed}  paced phases/pass {workload.paced_phases} "
          f"x {sizes.paced} records  "
          f"replay samples/pass {sizes.replays} x {sizes.replay} records  "
          f"passes {1 if trace else passes}  trace {trace}")
    print(f"host nproc={os.cpu_count()} python={host['python']} "
          f"numpy={host['numpy']} machine={platform.machine()} "
          f"ref_loop_ms={host['ref_loop_ms']:.1f}")
    if trace:
        metrics["host.ref_loop_ms"] = host["ref_loop_ms"]
    for metric, value in metrics.items():
        print(f"  {metric:40s} {value:14.6g} {units.get(metric, '?')}")
    for metric, (value, unit) in info.items():
        shown = (" ".join(f"{v:.4g}" for v in value) if isinstance(value, list)
                 else value)
        print(f"  {metric:40s} {shown} {unit}  (info)")
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        failures.append(f"metric names differ from BENCHMARK.json: "
                        f"missing {missing}, extra {extra}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    output = {
        "correct": not failures,
        "attempted": int(accounting["attempted"]),
        "failed": int(accounting["failed"]),
        "metrics": {metric: {"value": metrics[metric], "unit": units[metric]}
                    for metric in units if metric in metrics},
    }
    return output, 0 if not failures else 1


def smoke() -> int:
    """Every workload, tiny, traced and untraced; checks names and units."""
    code = 0
    for name in W.WORKLOADS:
        for trace in (0, 1):
            output, status = run_workload(name, seed=1, seconds=1.0, trace=trace,
                                          passes=2, smoke=True)
            print(json.dumps(output))
            code = code or status
    print("smoke", "ok" if code == 0 else "FAILED")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    output, status = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(output))
    return status


if __name__ == "__main__":
    sys.exit(main())
