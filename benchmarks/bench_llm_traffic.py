"""LLM interpretation traffic benchmark: cache-cold vs warm.

Production LEI traffic is highly repetitive — a few hundred hot
templates generate almost all interpretation requests — and every
upstream ``complete()`` costs a remote round-trip.  This benchmark
replays a skewed request stream against a simulated upstream endpoint
(fixed per-call latency) two ways:

* **cold** — the bare provider; every request pays the round-trip.
* **warm** — :class:`~repro.llm.cache.CachedLLM` over the provider
  supervisor (retries + breaker); repeats are answered from the cache.

Written as a result block (benchmarks/results/llm_traffic.txt) and
machine-readable as BENCH_llm.json at the repo root.

The acceptance bar is >= 10x fewer upstream ``complete()`` calls warm
than cold.  ``--smoke`` runs a scaled-down stream for CI wiring checks.
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.llm import (
    CachedLLM, FlakyLLM, ProviderSupervisor, build_interpretation_prompt,
)
from repro.logs import LogGenerator
from repro.obs import MetricsRegistry

from common import emit, emit_json

# Full-scale knobs: 1,200 requests over 40 hot templates, 1 ms upstream
# round-trip (a fast hosted endpoint on a good day).
DISTINCT_PROMPTS = 40
REQUESTS = 1_200
UPSTREAM_LATENCY_S = 0.001

SMOKE = {"distinct": 12, "requests": 120, "latency": 0.0002}


def _prompts(count: int) -> list[str]:
    """Distinct interpretation prompts standing in for hot templates."""
    seen: list[str] = []
    for record in LogGenerator("bgl", seed=0).generate(count * 30):
        prompt = build_interpretation_prompt(record.system, record.message)
        if prompt not in seen:
            seen.append(prompt)
        if len(seen) == count:
            break
    return seen


def _stream(prompts: list[str], requests: int) -> list[str]:
    """A skewed request stream: hot templates dominate (zipf-ish)."""
    rng = np.random.default_rng(1)
    weights = 1.0 / np.arange(1, len(prompts) + 1)
    weights /= weights.sum()
    picks = rng.choice(len(prompts), size=requests, p=weights)
    return [prompts[int(index)] for index in picks]


def _upstream(latency: float) -> FlakyLLM:
    """The simulated remote endpoint; ``calls`` counts round-trips."""
    return FlakyLLM(latency=latency, seed=0, sleep=time.sleep)


def _run_cold(stream: list[str], latency: float) -> dict:
    upstream = _upstream(latency)
    started = time.perf_counter()
    for prompt in stream:
        upstream.complete(prompt)
    elapsed = time.perf_counter() - started
    return {"mode": "cold", "requests": len(stream),
            "upstream_calls": upstream.calls,
            "elapsed_s": round(elapsed, 4),
            "requests_per_s": round(len(stream) / elapsed, 1)}


def _run_warm(stream: list[str], latency: float) -> dict:
    upstream = _upstream(latency)
    with tempfile.TemporaryDirectory() as scratch:
        cache = CachedLLM(ProviderSupervisor(upstream),
                          Path(scratch) / "interpretations.json",
                          autosave=False)
        started = time.perf_counter()
        for prompt in stream:
            cache.complete(prompt)
        elapsed = time.perf_counter() - started
    return {"mode": "warm(CachedLLM)", "requests": len(stream),
            "upstream_calls": upstream.calls,
            "cache_hits": cache.hits,
            "elapsed_s": round(elapsed, 4),
            "requests_per_s": round(len(stream) / elapsed, 1)}


def run_benchmark(*, smoke: bool = False) -> dict:
    if smoke:
        distinct, requests, latency = (SMOKE["distinct"], SMOKE["requests"],
                                       SMOKE["latency"])
    else:
        distinct, requests, latency = DISTINCT_PROMPTS, REQUESTS, UPSTREAM_LATENCY_S

    prompts = _prompts(distinct)
    stream = _stream(prompts, requests)
    cold = _run_cold(stream, latency)
    warm = _run_warm(stream, latency)
    reduction = cold["upstream_calls"] / max(1, warm["upstream_calls"])

    lines = [
        "LLM interpretation traffic benchmark (provider middleware stack)",
        f"stream                  : {requests} requests over {distinct} hot "
        f"templates, {latency * 1e3:.1f} ms upstream round-trip",
        f"cold (bare provider)    : {cold['upstream_calls']} upstream calls, "
        f"{cold['requests_per_s']:>9,.1f} requests/s",
        f"warm (CachedLLM)        : {warm['upstream_calls']} upstream calls "
        f"({warm['cache_hits']} cache hits), "
        f"{warm['requests_per_s']:>9,.1f} requests/s",
        f"upstream-call reduction : {reduction:.1f}x (bar: >= 10x)",
    ]
    emit("llm_traffic", "\n".join(lines))
    payload = {
        "benchmark": "llm_traffic",
        "smoke": smoke,
        "workload": {
            "distinct_prompts": distinct,
            "requests": requests,
            "upstream_latency_s": latency,
        },
        "results": [cold, warm],
        "upstream_call_reduction": round(reduction, 2),
    }
    emit_json("llm", payload)
    return payload


def test_llm_traffic_reduction():
    payload = run_benchmark()
    cold, warm = payload["results"]
    assert warm["upstream_calls"] <= payload["workload"]["distinct_prompts"]
    assert payload["upstream_call_reduction"] >= 10.0, payload


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down stream for CI wiring checks")
    arguments = parser.parse_args()
    result = run_benchmark(smoke=arguments.smoke)
    if not arguments.smoke and result["upstream_call_reduction"] < 10.0:
        raise SystemExit("llm traffic: upstream-call reduction below 10x bar")
