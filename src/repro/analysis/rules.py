"""Built-in lint rules enforcing this repo's invariants.

Each rule documents *why* the invariant exists; the linter's job is to
keep the properties the reproduction depends on (determinism, injectable
clocks and RNGs, correctly registered modules) from regressing silently.
"""

from __future__ import annotations

import ast

from .lint import LintRule, register_rule

__all__ = [
    "GlobalNumpyRandomRule", "WallClockRule", "MutableDefaultRule",
    "BlanketExceptRule", "SilentExceptRule", "ModuleSuperInitRule",
    "ConfinedRule", "ForwardConventionsRule", "DirectThreadRule",
    "DirectProcessRule", "PerTimestepLoopRule",
    "FaultPointAllowlistRule", "DirectLLMCallRule",
    "DetectorOutsideRegistryRule", "UnmanagedCheckpointWriteRule",
]

_NUMPY_ALIASES = {"np", "numpy"}
# Constructing generators/annotations is fine; calling the legacy global
# RNG (np.random.rand/seed/...) is what breaks run-to-run determinism.
_ALLOWED_RANDOM_ATTRS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
    "Philox", "RandomState",
}
_CLOCK_FUNCS = {"time", "perf_counter", "monotonic", "process_time", "clock"}
_DATETIME_FUNCS = {"now", "utcnow", "today"}


def _dotted_callee(func: ast.expr) -> str:
    """``name`` or ``owner.attr`` for a plain callee, else ``""``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return ""


class ConfinedRule(LintRule):
    """A construct the project confines to a few modules.

    ``allowed_in`` lists the posix path fragments where it is allowed;
    :meth:`run` skips those files whole, so matchers never look at
    paths.  A "callee in a set" rule is pure data: ``callees`` maps each
    dotted callee, as written (``threading.Thread``, ``Thread``), to the
    name its finding shows, formatted into the ``message`` template as
    ``{callee}``.  Rules with richer matchers override the ``visit_*``
    methods instead.
    """

    allowed_in: tuple[str, ...] = ()
    callees: dict[str, str] = {}
    message = ""

    def run(self, tree: ast.AST) -> list:
        self.path = self.source.path.replace("\\", "/")
        if any(fragment in self.path for fragment in self.allowed_in):
            return self.violations
        return super().run(tree)

    def visit_Call(self, node: ast.Call) -> None:
        shown = self.callees.get(_dotted_callee(node.func))
        if shown is not None:
            self.report(node, self.message.format(callee=shown))
        self.generic_visit(node)


@register_rule
class GlobalNumpyRandomRule(LintRule):
    """Experiments must be reseedable: every random draw goes through an
    injected ``np.random.Generator``, never the process-global RNG."""

    name = "global-numpy-random"
    description = "forbid np.random.* global-RNG access (inject a Generator)"
    hint = "accept rng: np.random.Generator and use np.random.default_rng(seed)"

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if (isinstance(value, ast.Attribute) and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in _NUMPY_ALIASES
                and node.attr not in _ALLOWED_RANDOM_ATTRS):
            self.report(node, f"global RNG access np.random.{node.attr}")
        self.generic_visit(node)


@register_rule
class WallClockRule(LintRule):
    """Hot paths must be clock-injectable (see the ``repro.obs`` design):
    referencing ``time.perf_counter`` as a default is fine, *calling* the
    wall clock inline is not."""

    name = "wall-clock-call"
    description = "forbid inline wall-clock calls (inject a clock instead)"
    hint = "take clock: Callable[[], float] = time.perf_counter and call that"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            if (isinstance(owner, ast.Name) and owner.id == "time"
                    and func.attr in _CLOCK_FUNCS):
                self.report(node, f"inline wall-clock call time.{func.attr}()")
            elif func.attr in _DATETIME_FUNCS:
                base = owner
                if isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in ("datetime", "date"):
                    self.report(node, f"inline wall-clock call {func.attr}()")
        self.generic_visit(node)


@register_rule
class MutableDefaultRule(LintRule):
    """Mutable default arguments alias state across calls — a classic
    source of cross-experiment contamination."""

    name = "mutable-default-arg"
    description = "forbid list/dict/set literals (or calls) as argument defaults"
    hint = "default to None and create the container inside the function"

    _MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict"}

    def _is_mutable(self, node: ast.AST | None) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else ""
            return name in self._MUTABLE_CALLS
        return False

    def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                self.report(default, "mutable default argument")
        self.generic_visit(node)

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check
    visit_Lambda = _check


@register_rule
class BlanketExceptRule(LintRule):
    """Blanket handlers hide the exact silent-corruption bugs the auditor
    exists to catch; handle specific exceptions or re-raise."""

    name = "blanket-except"
    description = "forbid bare except and except Exception/BaseException"
    hint = "catch the specific exception types, or re-raise with a bare raise"

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(stmt, ast.Raise) and stmt.exc is None
                   for stmt in ast.walk(handler))

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare except:")
        elif isinstance(node.type, ast.Name) and \
                node.type.id in ("Exception", "BaseException") and \
                not self._reraises(node):
            self.report(node, f"blanket except {node.type.id} without re-raise")
        self.generic_visit(node)


@register_rule
class SilentExceptRule(LintRule):
    """The partner of ``blanket-except``: even a *specific* exception type
    handled by ``pass`` alone erases the failure — recovery paths must
    leave evidence (a counter, a log, a fallback value), or the fault
    harness can prove nothing about them.

    Handlers already flagged by ``blanket-except`` (bare ``except:``,
    ``except Exception``/``BaseException``) are skipped here so one bad
    handler yields one finding, not two.
    """

    name = "silent-except"
    description = "forbid except blocks whose body does nothing (swallowed errors)"
    hint = "count/log the failure or use contextlib.suppress at the call site"

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        return isinstance(stmt, ast.Pass) or (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        )

    @staticmethod
    def _blanket(node: ast.ExceptHandler) -> bool:
        return node.type is None or (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if not self._blanket(node) and \
                all(self._is_noop(stmt) for stmt in node.body):
            self.report(node, "except block silently swallows the error")
        self.generic_visit(node)


@register_rule
class FaultPointAllowlistRule(ConfinedRule):
    """Fault points are reviewed hooks, not a free-for-all: every
    ``fault_point(...)`` call must use a name registered in
    :data:`repro.testing.faultpoints.FAULT_POINTS`, planted in the one
    module that registration names.  A hook in unreviewed code is an
    injection surface nobody audits."""

    name = "fault-point-outside-allowlist"
    description = "fault_point(...) must use a registered name inside its registered module"
    hint = "register the point in repro.testing.faultpoints.FAULT_POINTS (name -> hosting module)"

    # The harness itself (benchmarks, the injector) and tests may touch
    # hooks freely; the allowlist binds production modules only.
    allowed_in = ("repro/testing/", "tests/")

    @staticmethod
    def _registry() -> dict[str, str]:
        from ..testing.faultpoints import FAULT_POINTS

        return FAULT_POINTS

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        named = (isinstance(func, ast.Name) and func.id == "fault_point") or (
            isinstance(func, ast.Attribute) and func.attr == "fault_point"
        )
        if named:
            first = node.args[0] if node.args else None
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                self.report(node, "fault_point name must be a string literal")
            else:
                registered = self._registry().get(first.value)
                if registered is None:
                    self.report(node, f"unregistered fault point {first.value!r}")
                elif registered not in self.path:
                    self.report(
                        node,
                        f"fault point {first.value!r} planted outside its "
                        f"registered module {registered}",
                    )
        self.generic_visit(node)


@register_rule
class DirectLLMCallRule(ConfinedRule):
    """The LLM is a supervised dependency, not a convenience: calls that
    bypass :mod:`repro.llm` skip the traffic-control middleware (cache,
    coalescing, breaker, retries, rate limit) and the one spec grammar
    operators configure.  ``repro.llm`` is the sanctioned construction
    site for providers; everything else takes an injected provider and
    never invokes ``.complete``/``.complete_batch`` on one directly."""

    name = "direct-llm-call"
    description = ("forbid LLM provider construction and .complete()/"
                   ".complete_batch() calls outside repro.llm")
    hint = ("inject an LLMProvider built by repro.llm.factory, or route the "
            "call through EventInterpreter")

    # The LLM package itself, the fault harness and tests exercise
    # providers directly by design.
    allowed_in = ("repro/llm/", "repro/testing/", "tests/",
                  "benchmarks/", "examples/")
    _COMPLETE_ATTRS = ("complete", "complete_batch")

    @staticmethod
    def _provider_class_names() -> frozenset[str]:
        """Names of concrete provider/middleware classes in repro.llm.

        Collected lazily from the package by real inheritance (MRO
        membership, not the structural ``__subclasshook__``), so new
        providers are covered without touching this rule.
        """
        from .. import llm
        from ..llm.providers import LLMProvider

        return frozenset(
            name for name in getattr(llm, "__all__", ())
            if isinstance(getattr(llm, name, None), type)
            and LLMProvider in getattr(llm, name).__mro__
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else ""
        if callee in self._provider_class_names():
            self.report(node, f"direct LLM provider construction {callee}(...)")
        elif (isinstance(func, ast.Attribute)
                and func.attr in self._COMPLETE_ATTRS
                and not (isinstance(func.value, ast.Name)
                         and func.value.id == "self")):
            self.report(node, f"direct LLM .{func.attr}() call")
        self.generic_visit(node)


def _is_module_base(base: ast.expr) -> bool:
    name = base.id if isinstance(base, ast.Name) else \
        base.attr if isinstance(base, ast.Attribute) else ""
    return name.endswith("Module") and name != ""


def _is_super_init_call(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "__init__"
            and isinstance(stmt.value.func.value, ast.Call)
            and isinstance(stmt.value.func.value.func, ast.Name)
            and stmt.value.func.value.func.id == "super")


def _self_attribute_targets(stmt: ast.stmt) -> list[ast.Attribute]:
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    return [t for t in targets
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self"]


@register_rule
class ModuleSuperInitRule(LintRule):
    """A ``Module`` subclass that assigns attributes before (or without)
    ``super().__init__()`` silently registers zero parameters — the exact
    hazard ``Module.__setattr__`` now raises on at runtime."""

    name = "module-super-init"
    description = "Module subclasses must call super().__init__() before assigning attributes"
    hint = "make super().__init__() the first statement of __init__"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not any(_is_module_base(base) for base in node.bases):
            self.generic_visit(node)
            return
        init = next((item for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name == "__init__"), None)
        if init is not None:
            if not any(_is_super_init_call(stmt) for stmt in init.body):
                self.report(init, f"{node.name}.__init__ never calls super().__init__()")
            else:
                for stmt in init.body:
                    if _is_super_init_call(stmt):
                        break
                    for target in _self_attribute_targets(stmt):
                        self.report(
                            target,
                            f"self.{target.attr} assigned before super().__init__()",
                        )
        self.generic_visit(node)


@register_rule
class DirectThreadRule(ConfinedRule):
    """Concurrency is a subsystem, not a convenience: ad-hoc threads
    bypass the runtime's queues, backpressure and supervision, and make
    replay non-deterministic.  The project has no sanctioned thread
    construction site — in-process serving is the synchronous engine,
    and parallel serving is ``repro.runtime``'s process executor — so
    every ``threading.Thread`` carries an explicit, reviewable
    suppression."""

    name = "direct-thread"
    description = "forbid threading.Thread(...) construction"
    hint = "submit work to repro.runtime (or suppress with # lint: disable=direct-thread)"

    callees = dict.fromkeys(("threading.Thread", "Thread"), "threading.Thread")
    message = "direct {callee} construction"


# Constructors on the `multiprocessing` / `mp` module objects, and on
# `multiprocessing.shared_memory` (or its alias).
_MP_ATTRS = ("Process", "Pool", "Manager", "Queue", "SimpleQueue",
             "JoinableQueue", "Pipe", "get_context")
_SHM_ATTRS = ("SharedMemory", "ShareableList")


@register_rule
class DirectProcessRule(ConfinedRule):
    """The process-executor counterpart of ``direct-thread``: ad-hoc
    worker processes and shared-memory segments bypass the executor's
    weight broadcast, journal-refeed crash recovery and registry
    merging — and a leaked ``/dev/shm`` segment outlives the run.
    ``repro.runtime`` (procexec + broadcast) is the one sanctioned
    construction site; tests and benchmarks are exempt."""

    name = "direct-process"
    description = ("forbid multiprocessing / shared-memory construction "
                   "outside repro.runtime")
    hint = ("route work through repro.runtime's process executor "
            "(or suppress with # lint: disable=direct-process)")

    allowed_in = ("repro/runtime/", "tests/", "benchmarks/")
    # Bare names are only those the mp machinery alone exports (bare
    # ``Queue`` is usually ``queue.Queue``).
    callees = {name: name for name in (
        *(f"{base}.{attr}" for base in ("multiprocessing", "mp")
          for attr in _MP_ATTRS + _SHM_ATTRS),
        *(f"shared_memory.{attr}" for attr in _SHM_ATTRS),
        "Process", "Pool", "SharedMemory", "ShareableList",
    )}
    message = "direct {callee} construction"


@register_rule
class PerTimestepLoopRule(ConfinedRule):
    """BPTT recurrences belong in :mod:`repro.nn.kernels`, where one fused
    autograd node replays the whole sequence; a Python loop over a tensor
    time axis anywhere else rebuilds the per-timestep graph the kernel
    layer exists to eliminate (PR 4's ≥2x training-throughput win)."""

    name = "per-timestep-loop"
    description = "forbid per-timestep Python loops over a tensor time axis outside repro.nn.kernels"
    hint = "route the recurrence through repro.nn.kernels (or suppress with # lint: disable=per-timestep-loop)"

    allowed_in = ("repro/nn/kernels.py",)

    @staticmethod
    def _is_shape_attr(node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "shape"

    @staticmethod
    def _axis_at_least_one(index: ast.expr) -> bool:
        return (isinstance(index, ast.Constant) and isinstance(index.value, int)
                and index.value >= 1)

    def _collect_time_axis_names(self, tree: ast.Module) -> set[str]:
        """Names bound to a non-leading ``.shape`` axis anywhere in the file.

        Catches both ``batch, seq, _ = x.shape`` (tuple positions >= 1) and
        ``seq = x.shape[1]``-style bindings.
        """
        names: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            for target in node.targets:
                if isinstance(target, ast.Tuple) and self._is_shape_attr(value):
                    for position, element in enumerate(target.elts):
                        if position >= 1 and isinstance(element, ast.Name):
                            names.add(element.id)
                elif (isinstance(target, ast.Name) and isinstance(value, ast.Subscript)
                        and self._is_shape_attr(value.value)
                        and self._axis_at_least_one(value.slice)):
                    names.add(target.id)
        return names

    def _is_time_range(self, iterator: ast.expr, time_names: set[str]) -> bool:
        if not (isinstance(iterator, ast.Call) and isinstance(iterator.func, ast.Name)
                and iterator.func.id == "range" and len(iterator.args) == 1
                and not iterator.keywords):
            return False
        arg = iterator.args[0]
        if isinstance(arg, ast.Name):
            return arg.id in time_names
        return (isinstance(arg, ast.Subscript) and self._is_shape_attr(arg.value)
                and self._axis_at_least_one(arg.slice))

    def visit_Module(self, node: ast.Module) -> None:
        time_names = self._collect_time_axis_names(node)
        for child in ast.walk(node):
            if isinstance(child, ast.For):
                iterators = [child.iter]
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp,
                                    ast.GeneratorExp)):
                iterators = [gen.iter for gen in child.generators]
            else:
                continue
            if any(self._is_time_range(it, time_names) for it in iterators):
                self.report(child, "per-timestep Python loop over a tensor time axis")


@register_rule
class ForwardConventionsRule(LintRule):
    """``forward`` is the module contract: an instance method invoked via
    ``module(...)``, never called directly on another object."""

    name = "forward-conventions"
    description = "forward() must be a plain instance method; call modules, not .forward()"
    hint = "define forward(self, x, ...) and invoke submodules as module(x)"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if any(_is_module_base(base) for base in node.bases):
            forward = next((item for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and item.name == "forward"), None)
            if forward is not None:
                if any(isinstance(dec, ast.Name)
                       and dec.id in ("staticmethod", "classmethod")
                       for dec in forward.decorator_list):
                    self.report(forward, "forward() must be an instance method")
                elif not forward.args.args or forward.args.args[0].arg != "self":
                    self.report(forward, "forward() must take self as its first parameter")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "forward"
                and not (isinstance(func.value, ast.Name)
                         and func.value.id == "self")):
            self.report(node, "call the module directly instead of .forward()",
                        hint="module(x) routes through __call__; .forward() skips it")
        self.generic_visit(node)


@register_rule
class DetectorOutsideRegistryRule(ConfinedRule):
    """Detectors are a portfolio, not a convenience: a class with a
    ``score_window`` or ``score_windows`` (batch) method defined outside
    :mod:`repro.detectors` can never be reached by ``--detectors``
    specs, gets no per-member obs counters, and silently skips the
    ensemble's warmup/degradation contract.  New members belong in ``repro.detectors`` with a
    ``DETECTOR_BUILDERS`` registration.  Tests and benchmarks may define
    ad-hoc scorers."""

    name = "detector-outside-registry"
    description = ("classes with a score_window/score_windows method belong "
                   "in repro.detectors")
    hint = ("move the detector into repro.detectors and register it in "
            "DETECTOR_BUILDERS (or suppress with "
            "# lint: disable=detector-outside-registry)")

    allowed_in = ("repro/detectors/", "tests/", "benchmarks/")
    _SCORERS = ("score_window", "score_windows")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        scorer = next((item for item in node.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                       and item.name in self._SCORERS), None)
        if scorer is not None:
            self.report(scorer,
                        f"{node.name}.{scorer.name} defines a detector "
                        f"outside the repro.detectors registry")
        self.generic_visit(node)


@register_rule
class UnmanagedCheckpointWriteRule(ConfinedRule):
    """Checkpoint durability rests on one code path: the manifest-aware
    :class:`~repro.core.checkpoint.CheckpointStore` saver, which digests
    the payload, writes to a temp file, renames atomically, and records
    the entry in ``MANIFEST.json`` before pruning.  A raw ``np.savez``
    anywhere else produces an orphan npz the resume path cannot trust —
    no digest, no manifest entry, no torn-write detection.  Model/weight
    serialization (``repro.nn.module``, the runtime broadcast arena, and
    pipeline export) have their own formats and are exempt, as are tests
    and benchmarks."""

    name = "unmanaged-checkpoint-write"
    description = "forbid np.savez outside the manifest-aware checkpoint saver"
    hint = ("route checkpoint writes through CheckpointStore.save (or "
            "suppress with # lint: disable=unmanaged-checkpoint-write)")

    allowed_in = (
        "repro/core/checkpoint.py", "repro/nn/module.py",
        "repro/runtime/broadcast.py", "repro/core/pipeline.py",
        "tests/", "benchmarks/", "examples/",
    )
    callees = {
        **{f"{alias}.{func}": f"np.{func}" for alias in sorted(_NUMPY_ALIASES)
           for func in ("savez", "savez_compressed")},
        "savez": "savez", "savez_compressed": "savez_compressed",
    }
    message = "unmanaged checkpoint write {callee}()"
