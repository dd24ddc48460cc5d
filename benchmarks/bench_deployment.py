"""§VI deployment benchmarks: online pipeline throughput, pattern-library
gating, and the deployment-efficiency comparison (§VI-C1).

Reproduction targets: the pattern library absorbs a meaningful fraction of
windows on a production-shaped (repetitive) stream; end-to-end deployment
time undercuts the rule-based timeline by >90 %.

Timing comes from the ``repro.obs`` registry the service runs under — a
span around ``process`` for wall time plus the service's own per-window
latency histogram — rather than hand-rolled ``perf_counter`` bookkeeping.
"""

from repro.deploy import OnlineService, deployment_speedup
from repro.evaluation.splits import continuous_target_split, source_training_slice
from repro.core import LogSynergy
from repro.logs import LogGenerator, build_dataset
from repro.obs import MetricsRegistry, use_registry

from common import FAST_CONFIG, emit

_STREAM_LINES = 6000


def _fit_model():
    datasets = {
        name: build_dataset(name, scale=0.003, seed=index)
        for index, name in enumerate(["bgl", "spirit", "thunderbird"])
    }
    sources = {
        name: source_training_slice(ds.sequences, 500)
        for name, ds in datasets.items() if name != "thunderbird"
    }
    split = continuous_target_split(datasets["thunderbird"].sequences, 80)
    model = LogSynergy(FAST_CONFIG.with_overrides(epochs=6))
    model.fit(sources, "thunderbird", split.train)
    return model


def test_deployment_online_pipeline(benchmark):
    model = _fit_model()
    stream = LogGenerator("thunderbird", seed=70, repeat_probability=0.9).generate(_STREAM_LINES)

    def run():
        registry = MetricsRegistry()
        with use_registry(registry):
            service = OnlineService(model)
            with registry.tracer.span("deployment.process", lines=_STREAM_LINES):
                service.process(stream)
        return service, registry

    service, registry = benchmark.pedantic(run, rounds=1, iterations=1)
    (process_span,) = registry.tracer.find("deployment.process")
    elapsed = process_span.duration
    throughput = _STREAM_LINES / elapsed
    stats = service.stats
    latency = registry.histogram("service.window_seconds")
    speedup = deployment_speedup()
    lines = [
        "Deployment benchmark (reproduced, Section VI)",
        f"stream lines processed      : {_STREAM_LINES}",
        f"throughput                  : {throughput:,.0f} lines/s",
        f"windows seen                : {stats.windows_seen}",
        f"model invocations           : {stats.model_invocations}",
        f"pattern-library skip rate   : {stats.model_skip_rate:.2%}",
        f"anomaly alerts raised       : {stats.anomalies_raised}",
        f"window latency mean / max   : {latency.mean * 1e3:.2f} ms "
        f"/ {latency.max * 1e3:.2f} ms",
        "",
        "Deployment-efficiency comparison (Section VI-C1):",
        f"rule-based timeline         : {speedup['rule_based_hours']:,.0f} engineer-hours",
        f"LogSynergy timeline         : {speedup['logsynergy_hours']:,.1f} hours",
        f"reduction                   : {speedup['reduction']:.1%} (paper claims >90 %)",
    ]
    emit("deployment", "\n".join(lines))

    assert stats.model_skip_rate > 0.2, "pattern library must absorb redundancy"
    assert latency.count == stats.windows_seen
    assert speedup["reduction"] > 0.9
    assert throughput > 50
