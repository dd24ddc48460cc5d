"""The documented metric catalog: every name the stack may emit.

``repro.analysis``'s ``flow/registry-drift`` pass cross-checks this
catalog against the metric names actually passed to
``registry.counter(...)`` / ``gauge(...)`` / ``histogram(...)`` across
``src/`` — in both directions.  Adding an emission without documenting
it here fails lint, and so does documenting a metric nothing emits.

Two sets, matching the two emission styles in the codebase:

* :data:`METRIC_NAMES` — exact string literals.
* :data:`METRIC_TEMPLATES` — skeletons of f-string names, with every
  interpolated segment collapsed to ``*`` (``f"{prefix}.windows_seen"``
  → ``"*.windows_seen"``).  These cover the per-shard/per-module
  namespaced metrics where the prefix is chosen at runtime.

Keep both sets sorted; the lint pass reports drift at the exact line of
the offending entry or emission site.
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES", "METRIC_TEMPLATES"]

METRIC_NAMES = frozenset({
    # repro.analysis — lint/audit self-metrics
    "analysis.audit.errors",
    "analysis.audit.findings",
    "analysis.audit.models",
    "analysis.lint.files",
    "analysis.lint.violations",
    # repro.detectors — ensemble combiner roll-ups
    "detectors.ensemble.anomalous",
    "detectors.ensemble.member_errors",
    "detectors.ensemble.stacker_fits",
    "detectors.ensemble.windows",
    # repro.parsing — Drain template miner
    "drain.match_depth",
    "drain.messages_parsed",
    "drain.templates_created",
    # repro.embedding — encoder and co-occurrence vectors
    "embedding.encoder.batch_dedup_hits",
    "embedding.encoder.oov_evictions",
    "embedding.wordvectors.cache_hits",
    "embedding.wordvectors.cache_misses",
    # repro.llm — response cache and provider middleware
    "llm.cache.entries",
    "llm.cache.hits",
    "llm.cache.invalidated",
    "llm.cache.invalidations",
    "llm.cache.misses",
    "llm.cache.quarantined",
    "llm.cache.regenerated_live",
    "llm.provider.breaker.closed",
    "llm.provider.breaker.opened",
    "llm.provider.breaker.probes",
    "llm.provider.coalesce.leaders",
    "llm.provider.coalesced",
    "llm.provider.degraded",
    "llm.provider.hedged",
    "llm.provider.memcache.evictions",
    "llm.provider.memcache.expired",
    "llm.provider.memcache.hits",
    "llm.provider.memcache.misses",
    "llm.provider.retries",
    "llm.provider.throttle_wait_seconds",
    "llm.provider.throttled",
    # repro.core.onboard — shadow-gated live onboarding
    "onboard.promoted",
    "onboard.rejected",
    "onboard.shadow_f1",
    # repro.testing — fault plans and fuzz harness
    "testing.faults.fired",
    "testing.fuzz.episodes",
    "testing.fuzz.invariants_checked",
    "testing.fuzz.violations",
    # repro.core — trainer
    "trainer.batch_seconds",
    "trainer.batches",
    # repro.core.checkpoint — durable checkpoint store
    "trainer.checkpoint.bytes",
    "trainer.checkpoint.fallbacks",
    "trainer.checkpoint.quarantined",
    "trainer.checkpoint.restored",
    "trainer.checkpoint.saved",
    "trainer.epochs",
    "trainer.estimator_step_seconds",
    "trainer.main_step_seconds",
    "trainer.nonfinite_batches",
})

METRIC_TEMPLATES = frozenset({
    # repro.detectors.ensemble — per-member counters, keyed by member name
    "detectors.*.anomalous",
    "detectors.*.errors",
    "detectors.*.warmups",
    "detectors.*.windows",
    # repro.runtime.shard — per-shard service metrics, prefixed by shard id
    "*.anomalies_raised*",
    "*.batch_seconds*",
    "*.batch_size*",
    "*.batches*",
    "*.degraded_windows*",
    "*.library_hits*",
    "*.model_invocations*",
    "*.window_seconds*",
    "*.windows_seen*",
    # repro.runtime.engine — per-runtime queue/drop accounting
    "*.queue_depth.shard*",
    "*.records_dropped",
    "*.records_rejected",
    # repro.runtime.engine — live weight promotion
    "*.weight_swaps",
    # repro.runtime.procexec — worker-process lifecycle accounting
    "*.proc.broadcast_bytes",
    "*.proc.deaths",
    "*.proc.live",
    "*.proc.rebroadcasts",
    "*.proc.refed_records",
    "*.proc.restarts",
    "*.proc.spawn_failures",
    "*.proc.spawned",
    # repro.runtime.supervisor — per-supervisor worker health
    "*.unhealthy_transitions*",
    "*.worker_failures*",
    "*.worker_recoveries*",
    "*.worker_retries*",
    "*.worker_timeouts*",
    # repro.nn.profiler — per-module autograd op profiles
    "*.backward_calls",
    "*.backward_seconds",
    "*.calls",
    "*.forward_seconds",
    "*.forward_self_seconds",
    "*.output_bytes",
    # repro.testing.plan — per-fault-point fired counters
    "testing.faults.fired.*",
    # repro.core.trainer — per-head loss gauges
    "trainer.loss.*",
})
