"""Named fault points: the hooks the fault injector fires through.

A *fault point* is a named call site planted in production code
(``fault_point("runtime.worker.score")``).  With no injector armed the
hook is one module-global load and a ``None`` check — the same
activation pattern as :mod:`repro.nn.profiler` — so instrumented hot
paths cost nothing in production.  While a
:class:`~repro.testing.plan.FaultInjector` is armed (``with
FaultInjector(plan): ...``) each call consults the injector, which may
raise, skew the injected clock, corrupt the value passing through, or
return the :data:`DROPPED` sentinel.

The module keeps a **registry** of every legal fault point and the one
module allowed to host it.  The ``fault-point-outside-allowlist`` lint
rule reads this registry, so a hook cannot quietly appear in unreviewed
code: planting a new one means registering it here (or via
:func:`register_fault_point`) where the diff is visible.

This module is deliberately dependency-free (stdlib only): fault points
are planted in low-level modules (runtime, cache, trainer) that must not
acquire import cycles through the testing package.
"""

from __future__ import annotations

__all__ = [
    "DROPPED", "FAULT_POINTS", "fault_point", "active_injector",
    "register_fault_point", "allowed_module",
]


class _Dropped:
    """Sentinel returned by a ``drop`` fault: the host must discard the
    value as if it were never produced."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DROPPED>"


DROPPED = _Dropped()

# Fault point name -> posix path fragment of the one module allowed to
# host it.  The lint rule enforces this statically; FaultPlan validates
# spec names against it at construction.
FAULT_POINTS: dict[str, str] = {
    # Inference workers, fired by their supervisor once per attempt:
    # entry (raise before the worker runs, or a timeout that skews the
    # injected clock so the attempt overruns its budget) and result
    # (corrupt, or drop to degrade the batch).
    "runtime.worker.score": "repro/runtime/supervisor.py",
    "runtime.worker.result": "repro/runtime/supervisor.py",
    # Runtime admission, under either executor: a drop here is silent
    # ingress data loss.
    "runtime.admit": "repro/runtime/engine.py",
    # Process executor: fail a worker-process launch (raise), or flip the
    # per-submit death probe (corrupt True) to SIGKILL a live shard.
    "runtime.proc.spawn": "repro/runtime/procexec.py",
    "runtime.proc.death": "repro/runtime/procexec.py",
    # Cache disk I/O: corrupt the raw bytes read from the cache file.
    "llm.cache.load": "repro/llm/cache.py",
    # LLM completions: hallucination bursts corrupt the returned text.
    "llm.simulated.complete": "repro/llm/simulated.py",
    # Provider boundary: attack the provider supervisor (retries,
    # breaker) with corrupted upstream completions.
    "llm.provider.complete": "repro/llm/providers.py",
    # Training step: corrupt the assembled loss (NaN/Inf injection).
    "core.trainer.loss": "repro/core/trainer.py",
    # Checkpoint payload between digest and write: raise = crash with
    # nothing durable, corrupt = torn bytes the load digest must catch.
    "trainer.checkpoint.write": "repro/core/checkpoint.py",
}

# The currently armed injector (None = hooks disabled).
_ACTIVE = None


def active_injector():
    """The armed :class:`FaultInjector`, or ``None``."""
    return _ACTIVE


def fault_point(name: str, value=None):
    """A named fault-injection hook.

    Returns ``value`` untouched when no injector is armed (the hot-path
    case: one global load, one comparison).  Under an armed injector the
    due fault — if any — is applied: ``raise`` kinds raise
    :class:`~repro.testing.plan.InjectedFault`, ``timeout`` kinds skew
    the injector clock and pass ``value`` through, ``corrupt`` kinds
    return a mutated value, and ``drop`` kinds return :data:`DROPPED`.
    """
    injector = _ACTIVE
    if injector is None:
        return value
    return injector.fire(name, value)


def register_fault_point(name: str, module_fragment: str) -> None:
    """Register an additional fault point (extension path for tests).

    ``module_fragment`` is the posix-style path fragment of the hosting
    module (e.g. ``"repro/deploy/online.py"``); the lint allowlist
    picks it up immediately.
    """
    if not name or not module_fragment:
        raise ValueError("fault point name and module fragment must be non-empty")
    existing = FAULT_POINTS.get(name)
    if existing is not None and existing != module_fragment:
        raise ValueError(
            f"fault point {name!r} already registered for {existing!r}"
        )
    FAULT_POINTS[name] = module_fragment


def allowed_module(name: str) -> str:
    """The module fragment allowed to host ``name`` (KeyError if unknown)."""
    return FAULT_POINTS[name]


def _arm(injector):
    """Install ``injector`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    return previous


def _restore(previous) -> None:
    global _ACTIVE
    _ACTIVE = previous
