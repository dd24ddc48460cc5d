"""Import/call graph over a :class:`~repro.analysis.symbols.SymbolTable`.

Edges are resolved best-effort and *over-approximately* — for a checker
that must prove properties of everything reachable from an entry point,
an extra edge costs a little precision while a missing edge costs
soundness.  Resolution strategy, in order:

1. ``name(...)`` — module-local function/class (or an imported one),
   through the symbol table's alias/re-export resolution.  Instantiating
   a project class adds an edge to its ``__init__``.
2. ``self.method(...)`` — the enclosing class and its project bases.
3. ``a.b.c(...)`` — resolved as a dotted name (imported module attr,
   ``Class.method``, …).
4. ``obj.method(...)`` with an opaque receiver — linked to *every*
   project method of that name (capped at :data:`AMBIG_LIMIT` targets;
   beyond the cap the name is so generic that linking it would connect
   the whole program).

The graph keeps every call site (caller, callee, location), so passes
can report *how* a flagged function is reachable, not just that it is.
"""

from __future__ import annotations

import ast
import heapq
from dataclasses import dataclass

from .symbols import ClassSymbol, FunctionSymbol, SymbolTable, _dotted

__all__ = ["AMBIG_LIMIT", "CallSite", "CallGraph"]

# Max distinct methods an opaque-receiver call may fan out to before the
# name is considered too generic to link (e.g. ``.get``/``.items``).
AMBIG_LIMIT = 8


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, anchored at its source location."""

    caller: str
    callee: str
    path: str
    line: int
    col: int


class CallGraph:
    """Directed call graph with per-edge source locations."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self.edges: dict[str, list[CallSite]] = {}
        self.unresolved: dict[str, int] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for qualname in sorted(self.table.functions):
            function = self.table.functions[qualname]
            self.edges[qualname] = self._edges_of(function)

    def _edges_of(self, function: FunctionSymbol) -> list[CallSite]:
        sites: list[CallSite] = []
        seen: set[tuple[str, int, int]] = set()
        owner = (self.table.classes.get(function.class_name)
                 if function.class_name else None)
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in self._resolve_call(function, owner, node):
                key = (callee, node.lineno, node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                sites.append(CallSite(
                    caller=function.qualname, callee=callee,
                    path=function.module.path,
                    line=node.lineno, col=node.col_offset,
                ))
        return sites

    def _targets_for(self, resolved: str) -> list[str]:
        """Map a resolved symbol to function-level targets."""
        if resolved in self.table.functions:
            return [resolved]
        if resolved in self.table.classes:
            init = self.table.class_method(resolved, "__init__")
            return [init.qualname] if init is not None else []
        return []

    def _resolve_call(self, function: FunctionSymbol,
                      owner: ClassSymbol | None,
                      node: ast.Call) -> list[str]:
        func = node.func
        if isinstance(func, ast.Name):
            resolved = self.table.resolve(function.module, func.id)
            if resolved:
                return self._targets_for(resolved)
            self._miss(func.id)
            return []
        if not isinstance(func, ast.Attribute):
            return []   # lambdas, subscripted callables, …
        dotted = _dotted(func)
        if dotted is not None:
            head = dotted.partition(".")[0]
            if head == "self" and owner is not None:
                rest = dotted.split(".")[1:]
                if len(rest) == 1:
                    method = self.table.class_method(owner.qualname, rest[0])
                    if method is not None:
                        return [method.qualname]
                # self.attr.method(...): the receiver is an attribute of
                # unknown type — fall through to the by-name fallback.
            else:
                resolved = self.table.resolve(function.module, dotted)
                if resolved:
                    return self._targets_for(resolved)
        # Opaque receiver: link every project method with this name.
        candidates = self.table.methods_by_name.get(func.attr, [])
        if 0 < len(candidates) <= AMBIG_LIMIT:
            return [symbol.qualname for symbol in candidates]
        if candidates:
            self._miss(f".{func.attr}")
        return []

    def _miss(self, name: str) -> None:
        self.unresolved[name] = self.unresolved.get(name, 0) + 1

    # ------------------------------------------------------------------
    def callees(self, qualname: str) -> list[CallSite]:
        return self.edges.get(qualname, [])

    def reachable(self, entries: list[str]) -> dict[str, tuple[str, ...]]:
        """Every function reachable from ``entries``, mapped to one
        witness call chain (entry → … → function): the shortest, then
        lexicographically first.  Appending a callee keeps that order,
        so a best-first search settles each function at its first pop.
        Entries not present in the table are ignored.
        """
        heap = [(1, (entry,)) for entry in sorted(entries)
                if entry in self.table.functions]
        chains: dict[str, tuple[str, ...]] = {}
        while heap:
            length, chain = heapq.heappop(heap)
            if chain[-1] in chains:
                continue
            chains[chain[-1]] = chain
            for site in self.edges.get(chain[-1], []):
                if site.callee not in chains:
                    heapq.heappush(heap, (length + 1, chain + (site.callee,)))
        return chains

    def edge_count(self) -> int:
        return sum(len(sites) for sites in self.edges.values())

    def stats(self) -> dict[str, int]:
        """Deterministic size summary (for reports and snapshots)."""
        return {
            "call_edges": self.edge_count(),
            "unresolved_names": len(self.unresolved),
        }
