"""Fuzz-episode runner: N seeded episodes against an invariant suite.

One *episode* is: generate a fuzzed multi-system stream from an episode
seed, then run every checker in the chosen suite against it.  Episode
seeds derive deterministically from the base seed
(``seed + 7919 * index``) and are printed in every report, so any
failing episode replays exactly with ``repro fuzz --episodes 1 --seed
<episode seed>``.

The rendered report is a pure function of ``(config, seed)`` — no
timestamps, no temp paths — so two runs with the same arguments produce
byte-identical output (smoke.sh diffs them).

:func:`measure_fault_point_overhead` is the harness's own benchmark: it
times the unarmed :func:`~repro.testing.faultpoints.fault_point` hook
against an identical no-op function, guarding the "zero overhead when
unarmed" contract in CI.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..obs import get_registry
from .faultpoints import fault_point
from .fuzzer import LogStreamFuzzer
from .invariants import (BREAKABLE_RECOVERIES, CheckContext, InvariantResult,
                         suite_checkers)

__all__ = [
    "EPISODE_SEED_STRIDE", "episode_seed", "default_fuzzer",
    "EpisodeResult", "Violation", "FuzzReport", "run_episodes",
    "OverheadReport", "measure_fault_point_overhead",
]

# Prime stride keeps episode seeds distinct and non-overlapping for any
# plausible base seed / episode count.
EPISODE_SEED_STRIDE = 7919


def episode_seed(base_seed: int, index: int) -> int:
    """The seed of episode ``index`` under base seed ``base_seed``."""
    return base_seed + EPISODE_SEED_STRIDE * index


def default_fuzzer() -> LogStreamFuzzer:
    """The fuzzer configuration ``repro fuzz`` episodes run against."""
    return LogStreamFuzzer(
        systems=("bgl", "spirit", "thunderbird"),
        lines_per_system=120,
        anomaly_bursts=3,
        burst_length=(3, 6),
        parameter_noise=0.1,
    )


@dataclass(frozen=True)
class Violation:
    """One failed invariant in one episode."""

    episode: int
    seed: int
    invariant: str
    details: str


@dataclass
class EpisodeResult:
    """All invariant outcomes for one episode."""

    episode: int
    seed: int
    results: list[InvariantResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)


@dataclass
class FuzzReport:
    """The full outcome of a ``run_episodes`` call."""

    suite: str
    seed: int
    broken: tuple[str, ...]
    episodes: list[EpisodeResult] = field(default_factory=list)

    @property
    def violations(self) -> list[Violation]:
        return [
            Violation(episode.episode, episode.seed, result.invariant,
                      result.details)
            for episode in self.episodes
            for result in episode.results if not result.ok
        ]

    @property
    def ok(self) -> bool:
        return all(episode.ok for episode in self.episodes)

    def render(self) -> str:
        """Deterministic human-readable report (byte-stable across runs)."""
        lines = [
            f"fuzz suite '{self.suite}': {len(self.episodes)} episode(s), "
            f"base seed {self.seed}"
        ]
        if self.broken:
            lines.append(f"broken recovery paths: {', '.join(self.broken)}")
        seeds = ", ".join(str(episode.seed) for episode in self.episodes)
        lines.append(f"episode seeds: {seeds}")
        lines.append("replay one with: repro fuzz --episodes 1 --seed <episode seed>")
        for episode in self.episodes:
            passed = sum(1 for result in episode.results if result.ok)
            lines.append(f"episode {episode.episode} (seed {episode.seed}): "
                         f"{passed}/{len(episode.results)} invariants ok")
            for result in episode.results:
                marker = "ok  " if result.ok else "FAIL"
                lines.append(f"  {marker} {result.invariant}: {result.details}")
        violations = self.violations
        lines.append(f"violations: {len(violations)}")
        for violation in violations:
            lines.append(f"  episode {violation.episode} (seed {violation.seed}) "
                         f"{violation.invariant}: {violation.details}")
        return "\n".join(lines) + "\n"


def run_episodes(episodes: int, seed: int, *, suite: str = "all",
                 broken: tuple[str, ...] = (),
                 fuzzer: LogStreamFuzzer | None = None,
                 window: int = 10, step: int = 5,
                 f1_floor: float = 0.7,
                 provider_spec: str | None = None,
                 executor: str = "sync") -> FuzzReport:
    """Run ``episodes`` seeded fuzz episodes against ``suite``.

    ``broken`` names recovery paths to disable (see
    :data:`~repro.testing.invariants.BREAKABLE_RECOVERIES`) — the
    self-test mode proving the harness detects the defects it exists
    for.  Each episode gets a private scratch directory (cache files
    etc.) that never appears in the rendered report.  ``executor``
    selects the runtime the replay invariants drive (``"sync"`` or
    ``"process"``); injector-armed checkers pin sync regardless.
    """
    if executor not in ("sync", "process"):
        raise ValueError(f"unknown executor {executor!r}; "
                         "expected sync|process")
    if episodes <= 0:
        raise ValueError(f"episodes must be positive, got {episodes}")
    unknown = [name for name in broken if name not in BREAKABLE_RECOVERIES]
    if unknown:
        raise ValueError(
            f"unknown recovery path(s) {', '.join(sorted(unknown))}; "
            f"breakable: {', '.join(BREAKABLE_RECOVERIES)}")
    checkers = suite_checkers(suite)
    fuzzer = fuzzer if fuzzer is not None else default_fuzzer()
    report = FuzzReport(suite=suite, seed=seed, broken=tuple(broken))
    # Episode/invariant totals go to the ambient registry (checkers use
    # private registries internally so their counter assertions stay
    # exact; this is the surface ``repro fuzz --metrics-out`` exports).
    registry = get_registry()
    episode_counter = registry.counter("testing.fuzz.episodes")
    checked_counter = registry.counter("testing.fuzz.invariants_checked")
    violation_counter = registry.counter("testing.fuzz.violations")
    for index in range(episodes):
        current = episode_seed(seed, index)
        stream = fuzzer.generate(current)
        outcome = EpisodeResult(episode=index, seed=current)
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as scratch:
            context = CheckContext(
                stream=stream, seed=current, workdir=Path(scratch),
                broken=frozenset(broken), window=window, step=step,
                f1_floor=f1_floor, provider_spec=provider_spec,
                executor=executor,
            )
            for name, checker in checkers:
                try:
                    result = checker(context)
                except Exception as exc:  # lint: disable=blanket-except
                    # A checker crash IS a violation (an unhandled injected
                    # fault means the recovery path under test is missing);
                    # it must land in the report, not kill the run.
                    result = InvariantResult(
                        name, False, f"checker crashed: {type(exc).__name__}: {exc}")
                outcome.results.append(result)
                checked_counter.inc()
                if not result.ok:
                    violation_counter.inc()
        episode_counter.inc()
        report.episodes.append(outcome)
    return report


# -- unarmed-hook overhead benchmark ---------------------------------------

def _noop_hook(name: str, value=None):
    """Shape-identical baseline for the overhead benchmark."""
    return value


@dataclass(frozen=True)
class OverheadReport:
    """Unarmed fault-point cost vs. an identical no-op function."""

    iterations: int
    hook_ns: float       # per-call cost of the unarmed fault_point
    baseline_ns: float   # per-call cost of the no-op baseline

    @property
    def overhead_ns(self) -> float:
        """Extra cost of the hook beyond a plain function call."""
        return self.hook_ns - self.baseline_ns

    def render(self) -> str:
        return (f"unarmed fault_point: {self.hook_ns:.1f} ns/call "
                f"(baseline {self.baseline_ns:.1f} ns/call, "
                f"overhead {self.overhead_ns:+.1f} ns/call, "
                f"{self.iterations} iterations)")


def measure_fault_point_overhead(iterations: int = 200_000, repeats: int = 5,
                                 *, clock: Callable[[], float] = time.perf_counter,
                                 ) -> OverheadReport:
    """Best-of-``repeats`` per-call cost of the *unarmed* hook.

    Takes the minimum over repeats (standard micro-benchmark practice:
    the minimum is the least noise-contaminated estimate), so a loaded
    CI box inflates both sides equally rather than failing the guard.
    """
    if iterations <= 0 or repeats <= 0:
        raise ValueError("iterations and repeats must be positive")

    def best(fn) -> float:
        best_seconds = float("inf")
        for _ in range(repeats):
            start = clock()
            for _ in range(iterations):
                fn("runtime.worker.score", None)
            elapsed = clock() - start
            if elapsed < best_seconds:
                best_seconds = elapsed
        return best_seconds * 1e9 / iterations

    # Interleave a warmup of each before timing either.
    for fn in (_noop_hook, fault_point):
        fn("runtime.worker.score", None)
    return OverheadReport(
        iterations=iterations,
        hook_ns=best(fault_point),
        baseline_ns=best(_noop_hook),
    )
