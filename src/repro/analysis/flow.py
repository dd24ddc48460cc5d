"""Interprocedural analysis passes over the project call graph.

Where :mod:`repro.analysis.rules` enforces *local* invariants one file
at a time, the passes here check **whole-program** properties that only
hold (or break) across module boundaries:

* ``flow/determinism`` — nothing reachable from the replay/serve/fuzz
  entry points may consume unseeded randomness, read the wall clock
  inline, or iterate an unordered ``set`` — the exact properties behind
  the ``repro replay --shards N`` byte-identity guarantee.  Injectable
  clock/seed seams are declared in an explicit allowlist.
* ``flow/lock-discipline`` — for every class owning a lock, attributes
  mutated both inside and outside the inferred guarded regions are
  flagged, ``*_locked`` helpers must only be called while holding a
  lock, and inconsistent (or self-deadlocking) acquisition orders are
  reported.  ``threading.Condition(self._lock)`` aliases to its
  underlying lock, and private helpers whose every call site holds a
  lock inherit that guard through the dataflow engine.
* ``flow/registry-drift`` — cross-checks the ``FAULT_POINTS`` registry
  against actually planted ``fault_point(...)`` call sites, and the
  metric names emitted through ``repro.obs`` against the documented
  catalog (:mod:`repro.obs.catalog`), in both directions.

All passes emit :class:`~repro.analysis.lint.LintViolation` records
(rule names carry the ``flow/`` namespace), honour the same suppression
comments, and are deterministic down to the byte — the CI snapshot diff
in ``scripts/smoke.sh`` depends on it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import CallGraph, CallSite
from .dataflow import ForwardDataflow
from .lint import LintViolation
from .rules import (
    _ALLOWED_RANDOM_ATTRS, _CLOCK_FUNCS, _DATETIME_FUNCS, _NUMPY_ALIASES,
    FaultPointAllowlistRule,
)
from .symbols import ClassSymbol, FunctionSymbol, ModuleSymbol, SymbolTable

__all__ = [
    "DEFAULT_ENTRY_POINTS", "DETERMINISM_ALLOWLIST", "FLOW_PASSES",
    "FlowProject", "FlowPass", "register_flow_pass", "available_flow_passes",
    "select_flow_passes", "run_flow_passes",
    "DeterminismFlowPass", "LockDisciplinePass", "RegistryDriftPass",
]

# The deterministic surfaces: anything these reach must be replayable.
DEFAULT_ENTRY_POINTS = (
    "repro.cli._cmd_replay",
    "repro.cli._cmd_serve",
    "repro.cli._cmd_fuzz",
)

# Injectable clock/seed seams: functions that intentionally touch a
# nondeterminism source to *provide* it behind an injection point.
# Entries are exact qualnames or "prefix.*" namespaces.
DETERMINISM_ALLOWLIST = frozenset({
    # The obs registry owns the clock: metrics only read it through
    # explicitly started timers/spans, and replay runs with spans off.
    "repro.obs.*",
    # Tensor-level randn defaults to a fresh Generator for ad-hoc use;
    # every production call path injects a seeded rng.
    "repro.nn.tensor.randn",
})


@dataclass
class FlowProject:
    """One analyzed tree: symbol table, call graph, and entry points."""

    table: SymbolTable
    graph: CallGraph
    entry_points: tuple[str, ...] = DEFAULT_ENTRY_POINTS
    allowlist: frozenset = DETERMINISM_ALLOWLIST
    # Filled by passes as they run; rendered into the JSON report.
    stats: dict = field(default_factory=dict)

    @classmethod
    def build(cls, files, entry_points=DEFAULT_ENTRY_POINTS,
              allowlist=DETERMINISM_ALLOWLIST) -> "FlowProject":
        table = SymbolTable.build(files)
        project = cls(table=table, graph=CallGraph(table),
                      entry_points=tuple(entry_points),
                      allowlist=frozenset(allowlist))
        project.stats.update(table.stats())
        project.stats.update(project.graph.stats())
        return project

    def source_of(self, path: str):
        for module in self.table.modules.values():
            if module.path == path:
                return module.source
        return None


class FlowPass:
    """Base class: one interprocedural pass producing violations."""

    name = ""
    description = ""
    hint = ""

    def run(self, project: FlowProject) -> list[LintViolation]:
        raise NotImplementedError

    def violation(self, module: ModuleSymbol, node: ast.AST, message: str,
                  hint: str | None = None) -> LintViolation:
        return LintViolation(
            rule=self.name, path=module.path,
            line=getattr(node, "lineno", 1), col=getattr(node, "col_offset", 0),
            message=message, hint=self.hint if hint is None else hint,
        )


FLOW_PASSES: dict[str, type[FlowPass]] = {}


def register_flow_pass(cls: type[FlowPass]) -> type[FlowPass]:
    """Class decorator adding a pass to the ``flow/`` registry."""
    if not cls.name.startswith("flow/"):
        raise ValueError(f"{cls.__name__} must use the flow/ namespace")
    if cls.name in FLOW_PASSES:
        raise ValueError(f"duplicate flow pass name {cls.name!r}")
    FLOW_PASSES[cls.name] = cls
    return cls


def available_flow_passes() -> list[tuple[str, str]]:
    """(name, description) for every registered pass, sorted by name."""
    return sorted((name, cls.description) for name, cls in FLOW_PASSES.items())


def select_flow_passes(select) -> list[type[FlowPass]]:
    """Expand a select list (``flow/*`` wildcards allowed) to classes."""
    import fnmatch

    if select is None:
        return [FLOW_PASSES[name] for name in sorted(FLOW_PASSES)]
    chosen: list[type[FlowPass]] = []
    for pattern in select:
        matched = [name for name in sorted(FLOW_PASSES)
                   if fnmatch.fnmatchcase(name, pattern)]
        if not matched:
            raise KeyError(f"unknown flow pass {pattern!r}; "
                           f"available: {', '.join(sorted(FLOW_PASSES))}")
        for name in matched:
            if FLOW_PASSES[name] not in chosen:
                chosen.append(FLOW_PASSES[name])
    return chosen


def run_flow_passes(files, select=None,
                    entry_points=DEFAULT_ENTRY_POINTS,
                    allowlist=DETERMINISM_ALLOWLIST,
                    ) -> tuple[list[LintViolation], dict]:
    """Run selected passes over (path, text, tree) triples.

    Returns ``(violations, stats)`` with violations suppression-filtered
    and stable-sorted by (path, line, col, rule).
    """
    project = FlowProject.build(files, entry_points=entry_points,
                                allowlist=allowlist)
    violations: list[LintViolation] = []
    for pass_cls in select_flow_passes(select):
        violations.extend(pass_cls().run(project))
    kept = []
    for violation in violations:
        source = project.source_of(violation.path)
        if source is not None and source.suppressed(violation.line, violation.rule):
            continue
        kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule, v.message))
    return kept, project.stats


def _chain_text(chain: tuple[str, ...]) -> str:
    shown = chain if len(chain) <= 6 else chain[:3] + ("...",) + chain[-2:]
    return " -> ".join(shown)


def _allowlisted(qualname: str, allowlist: frozenset) -> bool:
    if qualname in allowlist:
        return True
    return any(entry.endswith(".*") and qualname.startswith(entry[:-1])
               for entry in allowlist)


# ----------------------------------------------------------------------
# flow/determinism
# ----------------------------------------------------------------------
@register_flow_pass
class DeterminismFlowPass(FlowPass):
    """Nondeterminism sources reachable from the replay/serve/fuzz
    entry points.  Generalizes the per-file ``wall-clock-call`` /
    ``global-numpy-random`` rules across module boundaries and adds the
    sources a single file cannot judge: unseeded stdlib ``random``,
    entropy taps (``uuid4``/``urandom``), and iteration over unordered
    sets."""

    name = "flow/determinism"
    description = ("forbid unseeded randomness, wall-clock reads and "
                   "unordered-set iteration reachable from replay/serve/fuzz")
    hint = ("inject a seeded Generator / clock through the call chain, or "
            "iterate sorted(...); allowlist intentional seams in "
            "repro.analysis.flow.DETERMINISM_ALLOWLIST")

    _ENTROPY = {
        ("uuid", "uuid1"), ("uuid", "uuid4"), ("os", "urandom"),
        ("secrets", "token_bytes"), ("secrets", "token_hex"),
        ("secrets", "randbelow"), ("secrets", "choice"),
    }
    _RANDOM_CONSTRUCTORS = {"Random", "SystemRandom"}

    def run(self, project: FlowProject) -> list[LintViolation]:
        chains = project.graph.reachable(list(project.entry_points))
        project.stats["entry_points"] = {
            entry: sum(1 for chain in chains.values() if chain[0] == entry)
            for entry in sorted(project.entry_points)
            if entry in project.table.functions
        }
        project.stats["reachable_functions"] = len(chains)
        violations: list[LintViolation] = []
        for qualname in sorted(chains):
            if _allowlisted(qualname, project.allowlist):
                continue
            function = project.table.functions[qualname]
            for node, what in self._scan(function):
                violations.append(self.violation(
                    function.module, node,
                    f"{what} in {qualname} "
                    f"(reachable via {_chain_text(chains[qualname])})",
                ))
        return violations

    # -- per-function source detectors ---------------------------------
    def _scan(self, function: FunctionSymbol):
        module = function.module
        set_names = self._set_bound_names(function.node)
        for node in ast.walk(function.node):
            if isinstance(node, ast.Call):
                found = self._nondeterministic_call(module, node)
                if found:
                    yield node, found
                found = self._set_conversion(node, set_names)
                if found:
                    yield node, found
            elif isinstance(node, ast.Attribute):
                found = self._numpy_global(node)
                if found:
                    yield node, found
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, set_names):
                    yield node, "iteration over an unordered set"
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    if self._is_set_expr(generator.iter, set_names):
                        yield node, "comprehension over an unordered set"
                        break

    def _nondeterministic_call(self, module: ModuleSymbol,
                               node: ast.Call) -> str | None:
        func = node.func
        if not isinstance(func, ast.Attribute) or not isinstance(func.value, ast.Name):
            return None
        base, attr = func.value.id, func.attr
        # Inline wall clock (same contract as the per-file rule).
        if base == "time" and attr in _CLOCK_FUNCS:
            return f"inline wall-clock call time.{attr}()"
        if attr in _DATETIME_FUNCS and base in ("datetime", "date"):
            return f"inline wall-clock call {base}.{attr}()"
        # Unseeded stdlib random: module-level draws share hidden state.
        if (base == "random" and module.imports.get("random") == "random"
                and attr not in self._RANDOM_CONSTRUCTORS):
            return f"unseeded stdlib RNG call random.{attr}()"
        if (base, attr) in self._ENTROPY:
            return f"entropy source {base}.{attr}()"
        return None

    @staticmethod
    def _numpy_global(node: ast.Attribute) -> str | None:
        value = node.value
        if (isinstance(value, ast.Attribute) and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in _NUMPY_ALIASES
                and node.attr not in _ALLOWED_RANDOM_ATTRS):
            return f"global RNG access np.random.{node.attr}"
        return None

    # -- unordered-set iteration ---------------------------------------
    @staticmethod
    def _set_bound_names(node: ast.AST) -> set[str]:
        """Names assigned a set literal / set() / set comprehension."""
        names: set[str] = set()
        for child in ast.walk(node):
            if not isinstance(child, ast.Assign):
                continue
            value = child.value
            is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "frozenset")
            )
            if is_set:
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @classmethod
    def _is_set_expr(cls, node: ast.expr, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        return isinstance(node, ast.Name) and node.id in set_names

    @classmethod
    def _set_conversion(cls, node: ast.Call, set_names: set[str]) -> str | None:
        """list()/tuple() over a set keeps the arbitrary order."""
        if isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple") \
                and len(node.args) == 1 and cls._is_set_expr(node.args[0], set_names):
            return f"{node.func.id}() materializes an unordered set"
        return None


# ----------------------------------------------------------------------
# flow/lock-discipline
# ----------------------------------------------------------------------
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft", "popitem",
    "remove", "discard", "clear", "add", "update", "setdefault",
    "move_to_end", "sort", "reverse",
})


def _self_attr_of(node: ast.expr) -> str | None:
    """The first self-rooted attribute of a value chain
    (``self.X``, ``self.X[k]``, ``self.X.y`` → ``X``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return node.attr
        node = node.value
    return None


@dataclass
class _MethodFacts:
    """Lexical facts of one method, gathered in a single guarded walk."""

    name: str
    mutations: list = field(default_factory=list)    # (attr, held, node)
    acquisitions: list = field(default_factory=list)  # (lock, held, node)
    calls: list = field(default_factory=list)         # (method, held, node)


class _ClassLockModel:
    """Locks, aliases and per-method facts for one class."""

    def __init__(self, cls: ClassSymbol):
        self.cls = cls
        self.alias: dict[str, str] = {}      # attr -> canonical lock attr
        self.kinds: dict[str, str] = {}      # canonical -> lock|rlock|condition
        self.methods: dict[str, _MethodFacts] = {}
        self._discover_locks()
        if self.alias:
            for name, method in sorted(cls.methods.items()):
                self.methods[name] = self._walk_method(method)

    # -- lock discovery ------------------------------------------------
    @staticmethod
    def _lock_call_kind(node: ast.expr) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else ""
        return {"Lock": "lock", "RLock": "rlock",
                "Condition": "condition"}.get(name)

    def _discover_locks(self) -> None:
        conditions: list[tuple[str, str | None]] = []
        for method in self.cls.methods.values():
            for node in ast.walk(method.node):
                if isinstance(node, ast.Assign):
                    attr = None
                    for target in node.targets:
                        attr = attr or _self_attr_of(target)
                    if attr is None:
                        continue
                    kind = self._lock_call_kind(node.value)
                    if kind in ("lock", "rlock"):
                        self.alias[attr] = attr
                        self.kinds[attr] = kind
                    elif kind == "condition":
                        backing = None
                        if node.value.args:
                            backing = _self_attr_of(node.value.args[0])
                        conditions.append((attr, backing))
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        attr = _self_attr_of(item.context_expr)
                        if attr is not None and isinstance(item.context_expr,
                                                          ast.Attribute):
                            # `with self.X:` — X behaves as a lock even
                            # when constructed elsewhere (injected).
                            self.alias.setdefault(attr, attr)
                            self.kinds.setdefault(attr, "lock")
        for attr, backing in conditions:
            if backing is not None and backing in self.alias:
                self.alias[attr] = self.alias[backing]
            else:
                self.alias[attr] = attr
                self.kinds.setdefault(attr, "condition")

    def canonical(self, attr: str) -> str | None:
        return self.alias.get(attr)

    @property
    def locks(self) -> frozenset:
        return frozenset(self.alias.values())

    # -- guarded walk --------------------------------------------------
    def _walk_method(self, method: FunctionSymbol) -> _MethodFacts:
        facts = _MethodFacts(name=method.name)
        for stmt in method.node.body:
            self._walk(stmt, frozenset(), facts)
        return facts

    def _walk(self, stmt: ast.stmt, held: frozenset, facts: _MethodFacts) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                self._scan_expr(item.context_expr, held, facts)
                attr = _self_attr_of(item.context_expr)
                lock = self.canonical(attr) if attr else None
                if lock is not None and isinstance(item.context_expr, ast.Attribute):
                    facts.acquisitions.append((lock, inner, stmt))
                    inner = inner | {lock}
            for child in stmt.body:
                self._walk(child, inner, facts)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested definition runs later, in an unknown lock context.
            for child in stmt.body:
                self._walk(child, frozenset(), facts)
            return
        self._record_writes(stmt, held, facts)
        for field_name, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                for child in value:
                    if isinstance(child, ast.stmt):
                        self._walk(child, held, facts)
                    elif isinstance(child, ast.excepthandler):
                        for handler_stmt in child.body:
                            self._walk(handler_stmt, held, facts)
                    elif isinstance(child, ast.expr):
                        self._scan_expr(child, held, facts)
            elif isinstance(value, ast.expr):
                self._scan_expr(value, held, facts)

    def _record_writes(self, stmt: ast.stmt, held: frozenset,
                       facts: _MethodFacts) -> None:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            attr = _self_attr_of(target)
            if attr is not None:
                facts.mutations.append((attr, held, target))

    def _scan_expr(self, expr: ast.expr, held: frozenset,
                   facts: _MethodFacts) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                if func.attr in self.cls.methods:
                    facts.calls.append((func.attr, held, node))
                continue
            if func.attr in _MUTATORS:
                attr = _self_attr_of(func.value)
                if attr is not None:
                    facts.mutations.append((attr, held, node))

    # -- interprocedural guard inference -------------------------------
    def entry_guards(self, externally_called: set[str]) -> dict[str, frozenset]:
        """The locks provably held at entry of each method.

        Public and externally-called methods are seeded unguarded;
        private helpers start optimistic (all locks) and are reduced by
        the meet (intersection) over every call site — the classic
        forward dataflow on the intra-class call graph.
        """
        top = self.locks

        def seeded(name: str) -> frozenset:
            public = not name.startswith("_") or (
                name.startswith("__") and name.endswith("__"))
            if public or name in externally_called or name == "__init__":
                return frozenset()
            return top

        def successors(name: str):
            facts = self.methods.get(name)
            if facts is None:
                return
            for callee, held, _node in facts.calls:
                yield held, callee

        flow: ForwardDataflow[str, frozenset] = ForwardDataflow(
            successors=successors,
            transfer=lambda entry, held: entry | held,
            join=lambda old, new: old & new,
        )
        seeds = {name: seeded(name) for name in sorted(self.methods)}
        solved = flow.solve(seeds)
        return {name: solved.get(name, top) for name in self.methods}

    def transitive_acquisitions(self) -> dict[str, frozenset]:
        """Locks each method may acquire, directly or via intra-class calls."""
        acquired = {name: frozenset(lock for lock, _h, _n in facts.acquisitions)
                    for name, facts in self.methods.items()}
        changed = True
        while changed:
            changed = False
            for name, facts in self.methods.items():
                merged = acquired[name]
                for callee, _held, _node in facts.calls:
                    merged = merged | acquired.get(callee, frozenset())
                if merged != acquired[name]:
                    acquired[name] = merged
                    changed = True
        return acquired


@register_flow_pass
class LockDisciplinePass(FlowPass):
    """Infer lock-guarded regions and flag undisciplined shared state."""

    name = "flow/lock-discipline"
    description = ("flag attributes mutated both inside and outside their "
                   "inferred lock, unguarded *_locked calls, and inconsistent "
                   "lock acquisition order")
    hint = ("mutate shared attributes only while holding the class lock; "
            "acquire multiple locks in one global order")

    def run(self, project: FlowProject) -> list[LintViolation]:
        violations: list[LintViolation] = []
        lock_classes = 0
        for qualname in sorted(project.table.classes):
            cls = project.table.classes[qualname]
            model = _ClassLockModel(cls)
            if not model.alias:
                continue
            lock_classes += 1
            violations.extend(self._check_class(project, cls, model))
        project.stats["lock_classes"] = lock_classes
        return violations

    def _externally_called(self, project: FlowProject,
                           cls: ClassSymbol) -> set[str]:
        prefix = cls.qualname + "."
        called: set[str] = set()
        for caller, sites in project.graph.edges.items():
            caller_symbol = project.table.functions[caller]
            if caller_symbol.class_name == cls.qualname:
                continue
            for site in sites:
                if site.callee.startswith(prefix):
                    called.add(site.callee[len(prefix):])
        return called

    def _check_class(self, project: FlowProject, cls: ClassSymbol,
                     model: _ClassLockModel):
        module = cls.module
        entry = model.entry_guards(self._externally_called(project, cls))
        acquired = model.transitive_acquisitions()

        # (a) attributes mutated both guarded and unguarded.
        writes: dict[str, list[tuple[frozenset, ast.AST, str]]] = {}
        for name, facts in sorted(model.methods.items()):
            base = entry[name]
            for attr, held, node in facts.mutations:
                if name == "__init__":
                    continue    # single-threaded construction
                if attr in model.alias:
                    if not isinstance(node, ast.Call):
                        yield self.violation(
                            module, node,
                            f"lock attribute self.{attr} reassigned outside "
                            f"{cls.qualname}.__init__",
                        )
                    continue
                writes.setdefault(attr, []).append((base | held, node, name))
        for attr in sorted(writes):
            sites = writes[attr]
            guarded = sorted({lock for held, _n, _m in sites for lock in held})
            if not guarded:
                continue
            lock = guarded[0]
            for held, node, method in sites:
                if not held:
                    yield self.violation(
                        module, node,
                        f"attribute self.{attr} is mutated under self.{lock} "
                        f"elsewhere but written in {cls.qualname}.{method} "
                        f"without holding it",
                    )

        # (b) *_locked helpers must be entered holding a lock.
        for name, facts in sorted(model.methods.items()):
            base = entry[name]
            for callee, held, node in facts.calls:
                if callee.endswith("_locked") and not (base | held):
                    yield self.violation(
                        module, node,
                        f"{cls.qualname}.{callee} (caller-holds-lock "
                        f"convention) called from {name} without holding "
                        f"any lock",
                    )

        # (c) acquisition order: nested pairs, re-acquisition deadlocks.
        pairs: dict[tuple[str, str], ast.AST] = {}
        for name, facts in sorted(model.methods.items()):
            base = entry[name]
            for lock, held, node in facts.acquisitions:
                effective = base | held
                if lock in effective and model.kinds.get(lock) != "rlock":
                    yield self.violation(
                        module, node,
                        f"{cls.qualname}.{name} re-acquires non-reentrant "
                        f"self.{lock} while already holding it (deadlock)",
                    )
                for outer in sorted(effective - {lock}):
                    pairs.setdefault((outer, lock), node)
            for callee, held, node in facts.calls:
                effective = base | held
                for inner in sorted(acquired.get(callee, frozenset())):
                    if inner in effective and model.kinds.get(inner) != "rlock":
                        yield self.violation(
                            module, node,
                            f"{cls.qualname}.{name} calls {callee} which "
                            f"re-acquires non-reentrant self.{inner} already "
                            f"held here (deadlock)",
                        )
                    for outer in sorted(effective - {inner}):
                        pairs.setdefault((outer, inner), node)
        for (first, second) in sorted(pairs):
            if first < second and (second, first) in pairs:
                node = pairs[(first, second)]
                yield self.violation(
                    module, node,
                    f"inconsistent lock order in {cls.qualname}: "
                    f"self.{first} -> self.{second} here but "
                    f"self.{second} -> self.{first} elsewhere "
                    f"(line {pairs[(second, first)].lineno})",
                )


# ----------------------------------------------------------------------
# flow/registry-drift
# ----------------------------------------------------------------------
@register_flow_pass
class RegistryDriftPass(FlowPass):
    """Registries must match reality: every ``FAULT_POINTS`` entry has a
    planted ``fault_point(...)`` call site in its registered module, and
    every metric name emitted through ``repro.obs`` appears in the
    documented catalog (and vice versa)."""

    name = "flow/registry-drift"
    description = ("cross-check FAULT_POINTS against planted call sites and "
                   "emitted metric names against the obs catalog")
    hint = ("plant/remove the fault point, or update "
            "repro.testing.faultpoints.FAULT_POINTS / repro.obs.catalog")

    # Where the fault-point lint rule lets hooks be planted freely.
    _FAULT_EXEMPT = FaultPointAllowlistRule.allowed_in
    _METRIC_EXEMPT = ("repro/obs/", "tests/")
    _EMITTERS = ("counter", "gauge", "histogram")

    def run(self, project: FlowProject) -> list[LintViolation]:
        violations: list[LintViolation] = []
        violations.extend(self._check_fault_points(project))
        violations.extend(self._check_metrics(project))
        return violations

    # -- FAULT_POINTS --------------------------------------------------
    @staticmethod
    def _find_registry(project: FlowProject, variable: str):
        """(module, node, {literal key: literal value}) for a module-level
        dict assignment, or None."""
        for name in sorted(project.table.modules):
            module = project.table.modules[name]
            for node in module.tree.body:
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                    value = node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                    value = node.value
                else:
                    continue
                named = any(isinstance(t, ast.Name) and t.id == variable
                            for t in targets)
                if not named or not isinstance(value, ast.Dict):
                    continue
                entries = {}
                for key, val in zip(value.keys, value.values):
                    if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                            and isinstance(val, ast.Constant) \
                            and isinstance(val.value, str):
                        entries[key.value] = (val.value, key)
                return module, entries
        return None

    def _check_fault_points(self, project: FlowProject):
        found = self._find_registry(project, "FAULT_POINTS")
        if found is None:
            return
        registry_module, entries = found
        top = registry_module.name.partition(".")[0]
        planted: dict[str, list[str]] = {}
        for name in sorted(project.table.modules):
            module = project.table.modules[name]
            if module.name.partition(".")[0] != top:
                continue
            path = module.path.replace("\\", "/")
            if any(fragment in path for fragment in self._FAULT_EXEMPT):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                named = (isinstance(func, ast.Name) and func.id == "fault_point") \
                    or (isinstance(func, ast.Attribute) and func.attr == "fault_point")
                if named and node.args and isinstance(node.args[0], ast.Constant) \
                        and isinstance(node.args[0].value, str):
                    planted.setdefault(node.args[0].value, []).append(path)
        for point in sorted(entries):
            fragment, key_node = entries[point]
            sites = planted.get(point, [])
            in_module = [path for path in sites if fragment in path]
            if not in_module:
                where = (f"; planted only in {', '.join(sorted(set(sites)))}"
                         if sites else "")
                yield self.violation(
                    registry_module, key_node,
                    f"registered fault point {point!r} has no planted call "
                    f"site in its module {fragment}{where}",
                )

    # -- metric catalog ------------------------------------------------
    @staticmethod
    def _catalog_sets(project: FlowProject):
        """(module, names {value: node}, templates {value: node})."""
        for name in sorted(project.table.modules):
            module = project.table.modules[name]
            names: dict[str, ast.AST] = {}
            templates: dict[str, ast.AST] = {}
            for node in module.tree.body:
                if not isinstance(node, ast.Assign):
                    continue
                target_names = [t.id for t in node.targets
                                if isinstance(t, ast.Name)]
                value = node.value
                if isinstance(value, ast.Call) and value.args:
                    value = value.args[0]
                if not isinstance(value, (ast.Set, ast.Tuple, ast.List)):
                    continue
                bucket = names if "METRIC_NAMES" in target_names else \
                    templates if "METRIC_TEMPLATES" in target_names else None
                if bucket is None:
                    continue
                for element in value.elts:
                    if isinstance(element, ast.Constant) \
                            and isinstance(element.value, str):
                        bucket[element.value] = element
            if names or templates:
                return module, names, templates
        return None

    @staticmethod
    def _template_of(node: ast.JoinedStr) -> str:
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                if not parts or parts[-1] != "*":
                    parts.append("*")
        return "".join(parts)

    def _check_metrics(self, project: FlowProject):
        catalog = self._catalog_sets(project)
        if catalog is None:
            return
        catalog_module, names, templates = catalog
        top = catalog_module.name.partition(".")[0]
        emitted_literals: dict[str, tuple[ModuleSymbol, ast.AST]] = {}
        emitted_templates: dict[str, tuple[ModuleSymbol, ast.AST]] = {}
        for name in sorted(project.table.modules):
            module = project.table.modules[name]
            if module.name.partition(".")[0] != top:
                continue
            path = module.path.replace("\\", "/")
            if any(fragment in path for fragment in self._METRIC_EXEMPT):
                continue
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in self._EMITTERS and node.args):
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    emitted_literals.setdefault(arg.value, (module, node))
                elif isinstance(arg, ast.JoinedStr):
                    emitted_templates.setdefault(
                        self._template_of(arg), (module, node))
        for value in sorted(emitted_literals):
            module, node = emitted_literals[value]
            if value not in names:
                yield self.violation(
                    module, node,
                    f"metric {value!r} is emitted but missing from the "
                    f"documented catalog ({catalog_module.name}.METRIC_NAMES)",
                )
        for value in sorted(emitted_templates):
            module, node = emitted_templates[value]
            if value not in templates:
                yield self.violation(
                    module, node,
                    f"dynamic metric pattern {value!r} is emitted but missing "
                    f"from the documented catalog "
                    f"({catalog_module.name}.METRIC_TEMPLATES)",
                )
        for value in sorted(names):
            if value not in emitted_literals:
                yield self.violation(
                    catalog_module, names[value],
                    f"catalogued metric {value!r} is never emitted",
                )
        for value in sorted(templates):
            if value not in emitted_templates:
                yield self.violation(
                    catalog_module, templates[value],
                    f"catalogued metric pattern {value!r} is never emitted",
                )
