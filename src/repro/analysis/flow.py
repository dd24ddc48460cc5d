"""Interprocedural analysis passes over the project call graph.

Where :mod:`repro.analysis.rules` enforces *local* invariants one file
at a time, the passes here check **whole-program** properties that only
hold (or break) across module boundaries:

* ``flow/determinism`` — nothing reachable from the replay/serve/fuzz
  entry points may consume unseeded randomness, read the wall clock
  inline, or iterate an unordered ``set`` — the exact properties behind
  the ``repro replay --shards N`` byte-identity guarantee.  Injectable
  clock/seed seams are declared in an explicit allowlist.
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

from .callgraph import CallGraph
from .lint import LintViolation
from .rules import (
    _ALLOWED_RANDOM_ATTRS, _CLOCK_FUNCS, _DATETIME_FUNCS, _NUMPY_ALIASES,
    FaultPointAllowlistRule,
)
from .symbols import FunctionSymbol, ModuleSymbol, SymbolTable

__all__ = [
    "DEFAULT_ENTRY_POINTS", "DETERMINISM_ALLOWLIST", "FLOW_PASSES",
    "FlowProject", "FlowPass", "register_flow_pass", "available_flow_passes",
    "select_flow_passes", "run_flow_passes",
    "DeterminismFlowPass", "RegistryDriftPass",
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
