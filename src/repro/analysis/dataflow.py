"""A small forward dataflow engine (worklist fixpoint over any graph).

The determinism pass needs *reachability with witness chains* over the
call graph: facts (the shortest, lexicographically first call chain from
an entry point) grow monotonically from the entries.

:class:`ForwardDataflow` implements that fixpoint generically: seed
facts, propagate along edges through a ``transfer`` function, combine at
join points with ``join``, revisit successors whose fact changed.  The
worklist is kept sorted so iteration order — and therefore any
tie-breaking inside ``join`` — is deterministic, which the byte-stable
JSON reports depend on.

Facts must be immutable values with ``==`` (frozensets, tuples).
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, Iterable, Mapping, TypeVar

__all__ = ["ForwardDataflow", "MAX_ITERATIONS"]

Node = TypeVar("Node", bound=Hashable)
Fact = TypeVar("Fact")

# Safety valve: no lattice here is deep, so hitting this means a
# non-monotonic transfer/join pair (a bug in the calling pass).
MAX_ITERATIONS = 100_000


class ForwardDataflow(Generic[Node, Fact]):
    """Generic forward worklist solver.

    ``successors(node)`` yields ``(edge, next_node)`` pairs;
    ``transfer(fact, edge)`` maps the fact at the node across the edge;
    ``join(old, new)`` combines an incoming fact with the fact already
    stored at the target (return ``old`` unchanged — by identity or
    equality — to stop propagation).
    """

    def __init__(self,
                 successors: Callable[[Node], Iterable[tuple[object, Node]]],
                 transfer: Callable[[Fact, object], Fact],
                 join: Callable[[Fact, Fact], Fact]):
        self.successors = successors
        self.transfer = transfer
        self.join = join

    def solve(self, seeds: Mapping[Node, Fact]) -> dict[Node, Fact]:
        """Run to fixpoint from ``seeds``; returns the fact per visited node."""
        facts: dict[Node, Fact] = dict(seeds)
        worklist = sorted(facts, key=str)
        iterations = 0
        while worklist:
            iterations += 1
            if iterations > MAX_ITERATIONS:
                raise RuntimeError(
                    "dataflow failed to converge (non-monotonic transfer/join?)"
                )
            node = worklist.pop(0)
            fact = facts[node]
            changed: list[Node] = []
            for edge, target in self.successors(node):
                incoming = self.transfer(fact, edge)
                if target not in facts:
                    facts[target] = incoming
                    changed.append(target)
                    continue
                merged = self.join(facts[target], incoming)
                if merged != facts[target]:
                    facts[target] = merged
                    changed.append(target)
            if changed:
                pending = set(worklist)
                worklist.extend(node for node in sorted(changed, key=str)
                                if node not in pending)
        return facts
