"""``repro.analysis`` — static correctness tooling for the reproduction.

Three layers, one goal: catch the silent-bug classes that invalidate
cross-system transfer results *before* any epoch runs.

* :mod:`repro.analysis.audit` — given any :class:`repro.nn.Module`, run
  symbolic shape propagation plus a one-step forward/backward probe and
  report dead parameters, unregistered submodules, missing
  ``super().__init__()`` calls, broken autograd edges (ops routed through
  ``.data``/``detach()``) and non-finite values as a structured
  :class:`AuditReport`.
* :mod:`repro.analysis.lint` — an AST rule engine enforcing repo
  invariants (injected RNGs and clocks, no mutable defaults, no blanket
  excepts, Module subclass conventions) with per-line/per-file
  suppression comments and a registry for adding rules.
* :mod:`repro.analysis.flow` — whole-program passes over a project
  symbol table (:mod:`.symbols`), call graph (:mod:`.callgraph`) and
  forward dataflow engine (:mod:`.dataflow`): determinism of everything
  reachable from the replay/serve/fuzz entry points, lock discipline in
  every lock-owning class, and registry/catalog drift.  Findings live in
  the ``flow/`` rule namespace, with JSON/SARIF output and a baseline
  file (:mod:`.output`) for the CI gate.

Both are exposed as CLI subcommands (``repro audit``, ``repro lint``)
and gated in CI by ``scripts/lint.sh`` and the self-hosting tests under
``tests/analysis/``.
"""

from .findings import AuditReport, Finding, Severity
from .audit import (
    audit_baseline, audit_logsynergy, audit_model, audit_spec, build_probe,
    probe_data,
)
from .lint import (
    DEFAULT_EXEMPTIONS, LintReport, LintRule, LintViolation, RULES,
    SourceFile, available_rules, format_violations, lint_paths, lint_project,
    lint_source, register_rule,
)
from .flow import (
    DEFAULT_ENTRY_POINTS, FLOW_PASSES, FlowPass, available_flow_passes,
    register_flow_pass, run_flow_passes,
)
from .output import (
    apply_baseline, load_baseline, render_json, render_sarif, write_baseline,
)
from . import shapes

__all__ = [
    "Severity", "Finding", "AuditReport",
    "audit_model", "audit_baseline", "audit_logsynergy", "audit_spec",
    "build_probe", "probe_data",
    "LintRule", "LintViolation", "LintReport", "RULES", "SourceFile",
    "available_rules", "format_violations", "lint_paths", "lint_project",
    "lint_source", "register_rule", "DEFAULT_EXEMPTIONS",
    "FlowPass", "FLOW_PASSES", "DEFAULT_ENTRY_POINTS",
    "available_flow_passes", "register_flow_pass", "run_flow_passes",
    "render_json", "render_sarif",
    "load_baseline", "write_baseline", "apply_baseline",
    "shapes",
]
