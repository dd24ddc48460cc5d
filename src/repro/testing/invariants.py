"""Metamorphic and differential invariant checks over fuzz episodes.

Each invariant states a property the system must keep under a specific
injected fault, checked *differentially* against a fault-free golden run
or against the fuzzer's planted ground truth:

* ``shard-invariance`` — a replay renders byte-identically for any shard
  count (the runtime's keystone determinism claim).
* ``transient-fault-equivalence`` — transient worker raises within the
  retry budget plus one timeout overrun leave the rendered verdicts
  byte-identical to the golden run (retries and late results must be
  invisible in output).
* ``degraded-flagged-not-remembered`` — with the model path down hard,
  every emitted verdict carries the ``degraded`` flag and nothing is
  written into the pattern libraries (the model must re-judge after
  recovery).
* ``process-kill-recovers`` — SIGKILLing a worker process mid-stream
  under the process executor leaves the rendered replay byte-identical
  to the fault-free synchronous run (journal refeed + window-id dedup
  make crash recovery exactly-once).
* ``cache-corruption-regenerates`` — a cache file truncated mid-byte is
  quarantined and regenerated to fault-free content, never a crash.
* ``hallucination-burst-bounded`` — format-breaking LLM output bursts
  are absorbed by the review/regeneration loop (§IV-E2).
* ``flaky-provider-within-retry-budget-is-byte-identical`` — a flaky
  LLM provider behind the provider supervisor completes byte-identically
  to a fault-free run while errors stay within the retry budget, and a
  sustained outage degrades through the circuit breaker to the
  pattern-library fallback instead of raising.
* ``nan-loss-skipped`` — an injected NaN loss skips that optimizer step
  and leaves the training history finite.
* ``label-recovery-f1`` — the fuzzer's planted anomaly windows are
  recoverable by a catalog-based detector with F1 above a floor (the
  fuzz streams are learnable signal, not noise).
* ``day0-ensemble-f1-floor`` — on a day-0 stream (never-seen system,
  zero training data, learned model member degraded) the unsupervised
  detector portfolio alone clears an F1 floor.
* ``ensemble-not-worse-than-worst-member`` — on a volume-burst scenario
  stream the max-combined ensemble scores at least as well as its worst
  solo member (combining can dilute, never below the floor member).
* ``degraded-model-keeps-unsupervised-live`` — an ensemble whose model
  member has no pipeline still raises anomalies through the runtime,
  byte-identically at any shard count, while every model call is
  counted as a member error.
* ``onboard-crash-never-demotes`` — a crash mid-onboarding (the
  ``trainer.checkpoint.write`` fault killing the fine-tune's first
  checkpoint) leaves the serving weights and their scores
  byte-identical: promotion is all-or-nothing.

Checkers take a :class:`CheckContext`; ``context.broken`` names recovery
paths to *disable*, which is how the harness proves it can detect the
defects it exists for (see ``repro fuzz --break``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..detectors import DEFAULT_DETECTORS_SPEC, ensemble_from_spec
from ..evaluation.metrics import binary_metrics
from ..llm.cache import CachedLLM
from ..llm.factory import provider_from_spec
from ..llm.interpreter import EventInterpreter, review_interpretation
from ..llm.middleware import ProviderSupervisor, pattern_fallback
from ..llm.prompts import build_interpretation_prompt
from ..llm.providers import FlakyLLM, ProviderError
from ..llm.simulated import SimulatedLLM, normalize_tokens
from ..logs.events import EventKind, concepts_for_system
from ..logs.sequences import sliding_windows
from ..obs import MetricsRegistry, use_registry
from ..runtime import InferenceRuntime, SyntheticWorker
from ..runtime.replay import render_reports
from .fuzzer import FuzzedStream
from .plan import FaultInjector, FaultPlan, FaultSpec

__all__ = [
    "BREAKABLE_RECOVERIES", "CheckContext", "InvariantResult",
    "CHECKERS", "SUITES", "suite_checkers", "ConceptMatcher",
    "truncate_mid_byte", "garble_completion", "nan_loss",
]

# Recovery paths the harness can disable to prove its own teeth.
BREAKABLE_RECOVERIES = ("retry", "quarantine", "review", "nan-guard", "breaker")


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one invariant over one episode."""

    invariant: str
    ok: bool
    details: str = ""


@dataclass
class CheckContext:
    """Everything a checker needs for one episode."""

    stream: FuzzedStream
    seed: int
    workdir: Path
    broken: frozenset = frozenset()
    window: int = 10
    step: int = 5
    max_batch: int = 8
    f1_floor: float = 0.7
    # ``--llm`` spec the provider invariants drive through the provider
    # supervisor; ``None`` uses their built-in flaky default.
    provider_spec: str | None = None
    # Runtime executor the replay invariants exercise ("sync" or
    # "process").  Checkers that arm in-process fault injectors pin
    # "sync" regardless: a forked worker inherits the armed injector
    # module-global, which would double-count fires.
    executor: str = "sync"


# -- default fault mutators -------------------------------------------------

def truncate_mid_byte(text: str) -> str:
    """Cut a serialized cache in half, mid-token (a torn disk write)."""
    return text[: max(1, len(text) // 2)]


def garble_completion(text: str) -> str:
    """Turn a completion into review-failing output (unexpanded wildcard)."""
    return f"{text} <*>"


def nan_loss(loss):
    """Poison a loss tensor (keeps the autograd graph attached)."""
    return loss * float("nan")


# -- checker registry -------------------------------------------------------

CHECKERS: dict[str, object] = {}
SUITES: dict[str, tuple[str, ...]] = {}


def _invariant(name: str, *suites: str):
    def decorate(fn):
        CHECKERS[name] = fn
        for suite in suites + ("all",):
            SUITES[suite] = SUITES.get(suite, ()) + (name,)
        return fn
    return decorate


def suite_checkers(suite: str) -> list[tuple[str, object]]:
    """(name, checker) pairs for a suite, in registration order."""
    if suite not in SUITES:
        raise KeyError(f"unknown invariant suite {suite!r}; "
                       f"available: {', '.join(sorted(SUITES))}")
    return [(name, CHECKERS[name]) for name in SUITES[suite]]


# -- runtime helpers --------------------------------------------------------

def _run_replay(context: CheckContext, *, shards: int,
                registry: MetricsRegistry | None = None,
                supervisor_options: dict | None = None,
                executor: str | None = None):
    """Deterministic replay of the episode; returns (rendered, reports,
    runtime).  ``executor`` defaults to the context's choice; pass
    ``"sync"`` explicitly from checkers that arm in-process injectors."""
    registry = registry if registry is not None else MetricsRegistry()
    executor = context.executor if executor is None else executor
    runtime = InferenceRuntime(
        SyntheticWorker(threshold=0.5), executor=executor,
        shards=shards, window=context.window, step=context.step,
        max_batch=context.max_batch, max_latency=None, registry=registry,
        supervisor_options=supervisor_options,
    )
    try:
        for record in context.stream.records:
            runtime.submit(record)
        reports = runtime.drain()
    finally:
        runtime.stop()
    return render_reports(reports), reports, runtime


# -- invariants -------------------------------------------------------------

@_invariant("shard-invariance", "replay")
def check_shard_invariance(context: CheckContext) -> InvariantResult:
    rendered = [_run_replay(context, shards=shards)[0] for shards in (1, 2, 3)]
    ok = rendered[0] == rendered[1] == rendered[2]
    if ok:
        details = f"{len(rendered[0])} report bytes identical at shards 1/2/3"
    else:
        sizes = "/".join(str(len(r)) for r in rendered)
        details = f"replay diverged across shard counts (bytes {sizes})"
    return InvariantResult("shard-invariance", ok, details)


@_invariant("transient-fault-equivalence", "replay")
def check_transient_fault_equivalence(context: CheckContext) -> InvariantResult:
    golden, _, _ = _run_replay(context, shards=2, executor="sync")
    plan = FaultPlan((
        FaultSpec("runtime.worker.score", "raise", start=2, count=2),
        FaultSpec("runtime.worker.score", "timeout", start=6, count=1,
                  seconds=30.0),
    ), seed=context.seed)
    registry = MetricsRegistry()
    injector = FaultInjector(plan, registry=registry)
    retries = 0 if "retry" in context.broken else 3
    options = {"max_retries": retries, "timeout": 5.0,
               "clock": injector.clock, "unhealthy_after": 1_000_000}
    with injector:
        faulted, _, _ = _run_replay(context, shards=2, registry=registry,
                                    supervisor_options=options,
                                    executor="sync")
    fired = injector.total_fired
    if fired < 2:
        return InvariantResult(
            "transient-fault-equivalence", False,
            f"vacuous: only {fired} faults fired (stream too short?)")
    ok = faulted == golden
    details = (f"{fired} injected faults absorbed; verdicts byte-identical "
               f"to golden run" if ok else
               f"faulted run diverged from golden after {fired} injected faults")
    return InvariantResult("transient-fault-equivalence", ok, details)


@_invariant("degraded-flagged-not-remembered", "replay")
def check_degraded_flagging(context: CheckContext) -> InvariantResult:
    plan = FaultPlan((
        FaultSpec("runtime.worker.score", "raise", start=0, count=1_000_000),
    ), seed=context.seed)
    registry = MetricsRegistry()
    options = {"max_retries": 1, "unhealthy_after": 1, "cooldown": 1e9}
    with FaultInjector(plan, registry=registry):
        _, reports, runtime = _run_replay(context, shards=2, registry=registry,
                                          supervisor_options=options,
                                          executor="sync")
    degraded = runtime.stats.degraded_windows
    if degraded == 0:
        return InvariantResult(
            "degraded-flagged-not-remembered", False,
            "vacuous: no window was resolved by the degraded path")
    unflagged = sum(1 for report in reports
                    if not report.metadata.get("degraded", False))
    remembered = sum(len(library) for shard in runtime.shards
                     for library in shard.libraries.values())
    ok = unflagged == 0 and remembered == 0
    details = (f"{degraded} degraded windows all flagged, 0 patterns remembered"
               if ok else
               f"{unflagged} degraded verdicts unflagged, "
               f"{remembered} degraded patterns written to libraries")
    return InvariantResult("degraded-flagged-not-remembered", ok, details)


@_invariant("process-kill-recovers", "replay", "process")
def check_process_kill_recovery(context: CheckContext) -> InvariantResult:
    """SIGKILLing a worker process mid-stream must be invisible in
    output: the supervisor respawns the shard on a fresh epoch, refeeds
    its journal, and window-id dedup keeps delivery exactly-once — the
    rendered replay stays byte-identical to the fault-free synchronous
    run, with no lost or duplicated windows.

    The death probe fires parent-side (`ProcessShardExecutor.submit`),
    so arming the injector here never races the worker processes.
    """
    golden, _, _ = _run_replay(context, shards=2, executor="sync")
    start = min(40, max(1, len(context.stream.records) // 2))
    plan = FaultPlan((
        FaultSpec("runtime.proc.death", "corrupt", start=start, count=1,
                  mutate=lambda _value: True),
    ), seed=context.seed)
    registry = MetricsRegistry()
    with FaultInjector(plan, registry=registry) as injector:
        faulted, _, _ = _run_replay(context, shards=2, registry=registry,
                                    executor="process")
    if injector.total_fired != 1:
        return InvariantResult(
            "process-kill-recovers", False,
            f"vacuous: death fault fired {injector.total_fired} times "
            f"(expected exactly 1)")
    prefix = "runtime"  # the engine's default metric prefix
    deaths = registry.counter(f"{prefix}.proc.deaths").value
    restarts = registry.counter(f"{prefix}.proc.restarts").value
    refed = registry.counter(f"{prefix}.proc.refed_records").value
    ok = (faulted == golden and deaths == 1 and restarts == 1 and refed > 0)
    # The refed count is timing-dependent (the journal keeps growing
    # until the parent notices the death), so the rendered message must
    # not include it — fuzz reports are byte-diffed across runs.
    details = ("1 worker SIGKILL absorbed: respawned once, journal "
               "refed, output byte-identical to sync"
               if ok else
               f"recovery incomplete: identical={faulted == golden} "
               f"deaths={deaths:g} restarts={restarts:g} refed={refed:g}")
    return InvariantResult("process-kill-recovers", ok, details)


@_invariant("cache-corruption-regenerates", "llm")
def check_cache_corruption(context: CheckContext) -> InvariantResult:
    path = context.workdir / f"llm-cache-{context.seed}.json"
    records = [r for r in context.stream.records if not r.is_anomalous][:6]
    prompts = [build_interpretation_prompt(r.system, r.message) for r in records]
    with CachedLLM(SimulatedLLM(), path, autosave=False) as warm:
        for prompt in prompts:
            warm.complete(prompt)
    baseline = json.loads(path.read_text(encoding="utf-8"))

    plan = FaultPlan((
        FaultSpec("llm.cache.load", "corrupt", start=0, count=1,
                  mutate=truncate_mid_byte),
    ), seed=context.seed)
    registry = MetricsRegistry()
    quarantine = "quarantine" not in context.broken
    with use_registry(registry):
        with FaultInjector(plan, registry=registry) as injector:
            try:
                reloaded = CachedLLM(SimulatedLLM(), path, quarantine=quarantine)
            except ValueError:
                return InvariantResult(
                    "cache-corruption-regenerates", False,
                    "loader crashed on a truncated cache instead of quarantining")
        for prompt in prompts:
            reloaded.complete(prompt)
    regenerated = json.loads(path.read_text(encoding="utf-8"))
    quarantined = list(path.parent.glob(path.name + ".corrupt-*"))
    counted = registry.counter("llm.cache.quarantined").value
    ok = (injector.total_fired == 1 and reloaded.misses == len(prompts)
          and regenerated == baseline and len(quarantined) == 1 and counted == 1)
    details = (f"truncated cache quarantined and {len(prompts)} entries "
               f"regenerated to fault-free content" if ok else
               f"recovery incomplete: fired={injector.total_fired} "
               f"misses={reloaded.misses}/{len(prompts)} "
               f"quarantined_files={len(quarantined)} counter={counted:g} "
               f"content_match={regenerated == baseline}")
    return InvariantResult("cache-corruption-regenerates", ok, details)


@_invariant("hallucination-burst-bounded", "llm")
def check_hallucination_burst(context: CheckContext) -> InvariantResult:
    dialect = "bgl"
    concepts = (concepts_for_system(dialect, EventKind.NORMAL)
                + concepts_for_system(dialect, EventKind.ANOMALOUS))
    representatives = [concept.phrases[dialect].replace("<*>", "7")
                       for concept in concepts[:10]]
    plan = FaultPlan((
        FaultSpec("llm.simulated.complete", "corrupt", start=0, count=2,
                  mutate=garble_completion),
        FaultSpec("llm.simulated.complete", "corrupt", start=6, count=2,
                  mutate=garble_completion),
    ), seed=context.seed)
    regenerations_budget = 0 if "review" in context.broken else 2
    interpreter = EventInterpreter(SimulatedLLM(),
                                   max_regenerations=regenerations_budget)
    failed = 0
    regenerated = 0
    with FaultInjector(plan) as injector:
        for representative in representatives:
            text, regens = interpreter.interpret_event(dialect, representative)
            regenerated += regens
            if review_interpretation(text):
                failed += 1
    fired = injector.total_fired
    if fired < 4:
        return InvariantResult(
            "hallucination-burst-bounded", False,
            f"vacuous: only {fired}/4 burst completions were corrupted")
    ok = failed == 0 and regenerated >= 2
    details = (f"2 bursts ({fired} bad completions) absorbed by "
               f"{regenerated} regenerations; 0 bad interpretations kept"
               if ok else
               f"{failed} bad interpretations survived review "
               f"({regenerated} regenerations, {fired} corrupted completions)")
    return InvariantResult("hallucination-burst-bounded", ok, details)


_INVARIANT_FLAKY = "flaky-provider-within-retry-budget-is-byte-identical"


@_invariant(_INVARIANT_FLAKY, "llm")
def check_flaky_provider(context: CheckContext) -> InvariantResult:
    """Two-phase check of the provider supervisor.

    Phase 1: a flaky provider behind the supervisor, with upstream
    errors inside the retry budget, must complete byte-identically to a
    fault-free run (FlakyLLM's error draws never consume the inner
    simulator's RNG, so golden output is well-defined).  Phase 2: a
    sustained outage (``error_rate=1.0``) must open the circuit breaker
    and degrade every completion to the pattern-library fallback — never
    escape as an exception.  ``--break breaker`` turns the breaker
    off, letting phase 2's ProviderError through: the failure proves
    the invariant has teeth.
    """
    records = [r for r in context.stream.records if not r.is_anomalous][:20]
    prompts = [build_interpretation_prompt(r.system, r.message) for r in records]
    spec = context.provider_spec or "flaky:error_rate=0.35"

    # Phase 1: errors within the retry budget are invisible in output.
    # Budget 12 makes budget exhaustion astronomically unlikely at the
    # default error rate (0.35^13 per prompt) while keeping the
    # no-error vacuous case equally negligible over 20+ attempts.
    golden = [SimulatedLLM(seed=context.seed).complete(p) for p in prompts]
    flaky = provider_from_spec(spec, seed=context.seed)
    registry = MetricsRegistry()
    supervisor = ProviderSupervisor(flaky, max_retries=12,
                                    clock=lambda: 0.0, registry=registry)
    try:
        absorbed = [supervisor.complete(p) for p in prompts]
    except ProviderError as exc:
        return InvariantResult(
            _INVARIANT_FLAKY, False,
            f"retry budget exhausted; upstream error escaped the "
            f"supervisor: {exc}")
    errors = getattr(flaky, "errors", 0)
    if errors == 0:
        return InvariantResult(
            _INVARIANT_FLAKY, False,
            f"vacuous: provider spec {spec!r} produced no upstream errors")
    if absorbed != golden:
        diverged = sum(1 for a, g in zip(absorbed, golden) if a != g)
        return InvariantResult(
            _INVARIANT_FLAKY, False,
            f"{diverged}/{len(prompts)} completions diverged from the "
            f"fault-free run ({errors} upstream errors)")

    # Phase 2: a sustained outage degrades through the breaker, never raises.
    outage = FlakyLLM(error_rate=1.0, seed=context.seed)
    registry2 = MetricsRegistry()
    use_breaker = "breaker" not in context.broken
    supervisor2 = ProviderSupervisor(outage, max_retries=1,
                                     breaker=use_breaker, unhealthy_after=2,
                                     cooldown=1e9, clock=lambda: 0.0,
                                     registry=registry2)
    try:
        degraded = [supervisor2.complete(p) for p in prompts]
    except ProviderError as exc:
        return InvariantResult(
            _INVARIANT_FLAKY, False,
            f"sustained outage escaped the supervisor as "
            f"{type(exc).__name__} (circuit breaker disabled?): {exc}")
    expected = [pattern_fallback(p) for p in prompts]
    opened = registry2.counter("llm.provider.breaker.opened").value
    served = registry2.counter("llm.provider.degraded").value
    ok = degraded == expected and opened == 1 and served == len(prompts)
    details = (f"{errors} upstream errors absorbed byte-identically; outage "
               f"opened the breaker once and served {len(prompts)} fallbacks"
               if ok else
               f"outage handling wrong: opened={opened:g} degraded={served:g} "
               f"fallback_match={degraded == expected}")
    return InvariantResult(_INVARIANT_FLAKY, ok, details)


@_invariant("nan-loss-skipped", "trainer")
def check_nan_loss(context: CheckContext) -> InvariantResult:
    from ..config import LogSynergyConfig
    from ..core import LogSynergyModel, LogSynergyTrainer, TrainingBatch

    config = LogSynergyConfig(
        d_model=16, num_heads=2, num_layers=1, d_ff=32, feature_dim=8,
        embedding_dim=16, epochs=1, batch_size=16, window=4, seed=context.seed,
    )
    rng = np.random.default_rng(context.seed)
    count = 48
    data = TrainingBatch(
        sequences=rng.standard_normal(
            (count, config.window, config.embedding_dim)).astype(np.float32),
        anomaly_labels=(rng.random(count) < 0.2).astype(np.float32),
        system_labels=rng.integers(0, 2, size=count),
        domain_labels=rng.integers(0, 2, size=count),
    )
    plan = FaultPlan((
        FaultSpec("core.trainer.loss", "corrupt", start=1, count=1,
                  mutate=nan_loss),
    ), seed=context.seed)
    registry = MetricsRegistry()
    guard = "nan-guard" not in context.broken
    with use_registry(registry):
        model = LogSynergyModel(config, num_systems=2)
        trainer = LogSynergyTrainer(model, config, skip_nonfinite=guard)
        with FaultInjector(plan, registry=registry) as injector:
            history = trainer.fit(data)
    finite = all(np.isfinite(value) for value in history.total)
    skipped = registry.counter("trainer.nonfinite_batches").value
    ok = finite and injector.total_fired == 1 and (skipped == 1) == guard
    details = (f"1 NaN batch skipped; epoch losses finite" if ok else
               f"finite={finite} fired={injector.total_fired} "
               f"skipped_batches={skipped:g}")
    return InvariantResult("nan-loss-skipped", ok, details)


class ConceptMatcher:
    """Catalog-based line classifier for label-recovery scoring.

    A line matches an anomalous concept when its token overlap with any
    dialect rendering of that concept's skeleton clears ``threshold`` —
    the same skeleton matching the simulated LLM uses, so recovery
    degrades gracefully (not catastrophically) under parameter noise.
    """

    def __init__(self, threshold: float = 0.6):
        self.threshold = threshold
        self._skeletons: list[frozenset[str]] = []
        seen: set[frozenset[str]] = set()
        from ..logs.events import anomalous_concepts

        for concept in anomalous_concepts():
            for phrase in concept.phrases.values():
                skeleton = frozenset(normalize_tokens(phrase.replace("<*>", " ")))
                if skeleton and skeleton not in seen:
                    seen.add(skeleton)
                    self._skeletons.append(skeleton)

    def is_anomalous_line(self, message: str) -> bool:
        tokens = set(normalize_tokens(message))
        for skeleton in self._skeletons:
            if len(tokens & skeleton) / len(skeleton) >= self.threshold:
                return True
        return False


@_invariant("label-recovery-f1", "fuzzer")
def check_label_recovery(context: CheckContext) -> InvariantResult:
    matcher = ConceptMatcher()
    truth = context.stream.expected_window_labels(context.window, context.step)
    y_true: list[int] = []
    y_pred: list[int] = []
    for system, records in context.stream.by_system().items():
        messages = [record.message for record in records]
        for ordinal, start in enumerate(
                range(0, len(messages) - context.window + 1, context.step)):
            window = messages[start:start + context.window]
            y_true.append(int(truth[system][ordinal]))
            y_pred.append(int(any(matcher.is_anomalous_line(m) for m in window)))
    if not any(y_true):
        return InvariantResult("label-recovery-f1", False,
                               "vacuous: fuzzer planted no anomalous windows")
    f1 = binary_metrics(np.array(y_true), np.array(y_pred)).f1
    ok = f1 >= context.f1_floor
    details = f"window F1 {f1:.3f} vs floor {context.f1_floor:.2f} ({sum(y_true)} true windows)"
    return InvariantResult("label-recovery-f1", ok, details)


# Day-0 floor for the unsupervised portfolio (model member degraded).
# Empirically the default ensemble scores 0.71-1.00 over a wide seed
# sweep on the day-0 stream below; 0.6 leaves margin for unlucky seeds
# while still failing hard if any unsupervised member goes dark.
DAY0_F1_FLOOR = 0.6


def _day0_stream(context: CheckContext) -> FuzzedStream:
    """A zero-training-data episode: a never-catalogued system name
    speaking an existing dialect, dense enough bursts to score."""
    from .fuzzer import LogStreamFuzzer

    fuzzer = LogStreamFuzzer(
        systems=("day0",), dialects={"day0": "bgl"},
        lines_per_system=160, anomaly_bursts=4, burst_length=(3, 6),
        parameter_noise=0.1,
    )
    return fuzzer.generate(context.seed)


def _ensemble_f1(stream: FuzzedStream, spec: str, *,
                 window: int, step: int):
    """Score a fresh ensemble built from ``spec`` over a fuzzed stream;
    returns ``(f1, ensemble)`` so checkers can read member counters."""
    ensemble = ensemble_from_spec(spec, registry=MetricsRegistry())
    y_true: list[int] = []
    y_pred: list[int] = []
    for system, records in stream.by_system().items():
        sequences = sliding_windows(records, window, step)
        scores = ensemble.score_windows(
            system, [list(sequence.records) for sequence in sequences])
        y_true.extend(sequence.label for sequence in sequences)
        y_pred.extend(int(score > ensemble.threshold) for score in scores)
    if not any(y_true):
        return float("nan"), ensemble
    return binary_metrics(np.array(y_true), np.array(y_pred)).f1, ensemble


@_invariant("day0-ensemble-f1-floor", "detectors")
def check_day0_ensemble_floor(context: CheckContext) -> InvariantResult:
    stream = _day0_stream(context)
    f1, ensemble = _ensemble_f1(stream, DEFAULT_DETECTORS_SPEC,
                                window=context.window, step=context.step)
    if np.isnan(f1):
        return InvariantResult("day0-ensemble-f1-floor", False,
                               "vacuous: day-0 stream planted no anomalous windows")
    model_errors = ensemble.member_error_count("model")
    if model_errors == 0:
        return InvariantResult(
            "day0-ensemble-f1-floor", False,
            "vacuous: the degraded model member was never consulted "
            "(day-0 must exercise the no-pipeline path)")
    ok = f1 >= DAY0_F1_FLOOR
    details = (f"day-0 window F1 {f1:.3f} vs floor {DAY0_F1_FLOOR:.2f} "
               f"({model_errors} degraded model calls absorbed)")
    return InvariantResult("day0-ensemble-f1-floor", ok, details)


@_invariant("ensemble-not-worse-than-worst-member", "detectors")
def check_ensemble_not_worse(context: CheckContext) -> InvariantResult:
    from .fuzzer import LogStreamFuzzer

    fuzzer = LogStreamFuzzer(
        systems=("bgl",), lines_per_system=160, anomaly_bursts=3,
        burst_length=(3, 6), parameter_noise=0.1, scenario="volume-burst",
    )
    stream = fuzzer.generate(context.seed)
    members = ("ewma", "lof", "rules")
    solo = {name: _ensemble_f1(stream, f"{name}:max",
                               window=context.window, step=context.step)[0]
            for name in members}
    combined, _ = _ensemble_f1(stream, "ewma,lof,rules:max",
                               window=context.window, step=context.step)
    if any(np.isnan(f1) for f1 in solo.values()) or np.isnan(combined):
        return InvariantResult("ensemble-not-worse-than-worst-member", False,
                               "vacuous: scenario stream planted no anomalous windows")
    worst = min(solo.values())
    ok = combined >= worst - 1e-9
    scored = " ".join(f"{name}={f1:.3f}" for name, f1 in solo.items())
    details = (f"ensemble F1 {combined:.3f} vs worst member {worst:.3f} "
               f"({scored})")
    return InvariantResult("ensemble-not-worse-than-worst-member", ok, details)


@_invariant("degraded-model-keeps-unsupervised-live", "detectors")
def check_degraded_model_fallback(context: CheckContext) -> InvariantResult:
    stream = _day0_stream(context)
    rendered: list[list[str]] = []
    anomalies = 0
    model_errors = 0
    for shards in (1, 2, 3):
        registry = MetricsRegistry()
        ensemble = ensemble_from_spec(DEFAULT_DETECTORS_SPEC, registry=registry)
        runtime = InferenceRuntime.from_ensemble(
            ensemble, shards=shards, window=context.window,
            step=context.step, max_batch=context.max_batch,
            max_latency=None, registry=registry,
        )
        for record in stream.records:
            runtime.submit(record)
        reports = runtime.drain()
        rendered.append(render_reports(reports))
        anomalies = sum(1 for report in reports if report.is_anomalous)
        model_errors = ensemble.member_error_count("model")
    identical = rendered[0] == rendered[1] == rendered[2]
    ok = identical and anomalies > 0 and model_errors > 0
    details = (f"{anomalies} anomalies raised with the model member down "
               f"({model_errors} member errors), byte-identical at "
               f"shards 1/2/3" if ok else
               f"identical={identical} anomalies={anomalies} "
               f"model_errors={model_errors}")
    return InvariantResult("degraded-model-keeps-unsupervised-live", ok, details)


@_invariant("onboard-crash-never-demotes", "onboard")
def check_onboard_crash_never_demotes(context: CheckContext) -> InvariantResult:
    """A crash mid-onboarding must leave the serving weights untouched.

    Builds a tiny warm pipeline, takes its serving scores as the golden
    baseline, then runs an onboarding fine-tune whose first checkpoint
    write is killed by the ``trainer.checkpoint.write`` raise fault.
    The session dies before any promotion decision; the serving model's
    parameters and scores must be byte-identical to the baseline.
    """
    from ..config import LogSynergyConfig
    from ..core import (
        CheckpointStore, ControllerError, LogSynergyModel, OnboardingSession,
    )
    from ..core.pipeline import LogSynergy
    from ..logs.sequences import sliding_windows
    from .plan import InjectedFault

    config = LogSynergyConfig(
        d_model=16, num_heads=2, num_layers=1, d_ff=32, feature_dim=8,
        embedding_dim=16, epochs=2, batch_size=8, window=4, step=2,
        seed=context.seed, use_lei=False,
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        pipeline = LogSynergy(config)
        pipeline.target_system = "day0"
        pipeline._system_index = {"source": 0, "day0": 1}
        pipeline.model = LogSynergyModel(
            config, num_systems=2, rng=np.random.default_rng(context.seed))
        stream = _day0_stream(context)
        sequences = sliding_windows(
            stream.by_system()["day0"], window=config.window, step=config.step)
        probe = sequences[-8:]
        baseline_state = {key: value.copy()
                          for key, value in pipeline.model.state_dict().items()}
        baseline_scores = pipeline.predict_proba(probe)

        store = CheckpointStore(context.workdir / "onboard-ckpt",
                                clock=lambda: 0.0)
        session = OnboardingSession(pipeline, gate_f1=0.0)
        plan = FaultPlan((
            FaultSpec("trainer.checkpoint.write", "raise", start=0, count=1),
        ), seed=context.seed)
        crashed = False
        with FaultInjector(plan, registry=registry) as injector:
            try:
                session.run("day0", sequences, store=store)
            except (ControllerError, InjectedFault):
                crashed = True
        after_state = pipeline.model.state_dict()
        after_scores = pipeline.predict_proba(probe)

    if injector.total_fired == 0:
        return InvariantResult(
            "onboard-crash-never-demotes", False,
            "vacuous: the checkpoint-write fault never fired")
    if not crashed:
        return InvariantResult(
            "onboard-crash-never-demotes", False,
            "the injected checkpoint crash did not abort the session")
    weights_intact = (
        set(baseline_state) == set(after_state)
        and all(np.array_equal(baseline_state[key], after_state[key])
                for key in baseline_state))
    scores_intact = np.array_equal(np.asarray(baseline_scores),
                                   np.asarray(after_scores))
    not_promoted = session.state != "promoted"
    ok = weights_intact and scores_intact and not_promoted
    details = (f"serving weights and {len(probe)} probe scores byte-identical "
               f"after mid-onboarding crash (session state {session.state})"
               if ok else
               f"weights_intact={weights_intact} scores_intact={scores_intact} "
               f"session_state={session.state}")
    return InvariantResult("onboard-crash-never-demotes", ok, details)
