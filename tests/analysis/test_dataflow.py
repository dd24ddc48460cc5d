"""Reachability facts the determinism pass relies on: each function
reachable from the seeds carries one witness chain, the shortest and
then lexicographically first, and cycles settle instead of looping."""

from repro.analysis.callgraph import CallGraph
from repro.analysis.symbols import SymbolTable, parse_files


def chain_flow(make_tree, edges):
    """A call graph over ``pkg.m`` with one function per key of
    ``edges``, each calling the functions listed for it."""
    source = "\n".join(
        f"def {fn}():\n" + "".join(f"    {t}()\n" for t in targets)
        + ("    pass\n" if not targets else "")
        for fn, targets in edges.items())
    root = make_tree({"src/pkg/m.py": source})
    table = SymbolTable.build(
        parse_files(sorted(str(p) for p in root.rglob("*.py"))))
    return CallGraph(table)


def short(facts):
    """Drop the ``pkg.m.`` prefix so facts read like the edge tables."""
    return {k.rsplit(".", 1)[-1]: tuple(n.rsplit(".", 1)[-1] for n in v)
            for k, v in facts.items()}


class TestReachabilityLattice:
    def test_facts_reach_fixpoint(self, make_tree):
        flow = chain_flow(make_tree, {"a": ["b"], "b": ["c"], "c": []})
        facts = short(flow.reachable(["pkg.m.a"]))
        assert facts == {"a": ("a",), "b": ("a", "b"), "c": ("a", "b", "c")}

    def test_join_prefers_shorter_chain(self, make_tree):
        flow = chain_flow(make_tree, {"a": ["b", "c"], "b": ["c"], "c": []})
        facts = short(flow.reachable(["pkg.m.a"]))
        assert facts["c"] == ("a", "c")

    def test_cycles_converge(self, make_tree):
        flow = chain_flow(make_tree, {"a": ["b"], "b": ["a"]})
        facts = short(flow.reachable(["pkg.m.a"]))
        assert facts["a"] == ("a",) and facts["b"] == ("a", "b")
