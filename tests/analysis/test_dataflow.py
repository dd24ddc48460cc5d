"""Dataflow engine tests: the growing reachability chains the
determinism pass relies on, a shrinking set-intersection lattice (the
engine is lattice-generic), determinism of the worklist, and the
non-convergence guard."""

import pytest

from repro.analysis.dataflow import ForwardDataflow


def chain_flow(edges):
    return ForwardDataflow(
        successors=lambda node: [(t, t) for t in edges.get(node, [])],
        transfer=lambda chain, target: chain + (target,),
        join=lambda old, new: min(old, new, key=lambda c: (len(c), c)),
    )


class TestReachabilityLattice:
    def test_facts_reach_fixpoint(self):
        flow = chain_flow({"a": ["b"], "b": ["c"], "c": []})
        facts = flow.solve({"a": ("a",)})
        assert facts == {"a": ("a",), "b": ("a", "b"), "c": ("a", "b", "c")}

    def test_join_prefers_shorter_chain(self):
        flow = chain_flow({"a": ["b", "c"], "b": ["c"], "c": []})
        facts = flow.solve({"a": ("a",)})
        assert facts["c"] == ("a", "c")

    def test_cycles_converge(self):
        flow = chain_flow({"a": ["b"], "b": ["a"]})
        facts = flow.solve({"a": ("a",)})
        assert facts["a"] == ("a",) and facts["b"] == ("a", "b")

    def test_two_seeds_deterministic_tiebreak(self):
        flow = chain_flow({"x": ["shared"], "y": ["shared"]})
        first = flow.solve({"x": ("x",), "y": ("y",)})
        second = flow.solve({"y": ("y",), "x": ("x",)})
        assert first == second
        assert first["shared"] == ("x", "shared")    # lexicographic winner


class TestIntersectionLattice:
    def test_meet_over_call_sites(self):
        # helper is called holding {L} from one place and {} from another:
        # its entry fact must shrink to the intersection.
        calls = {
            "guarded": [(frozenset({"L"}), "helper")],
            "bare": [(frozenset(), "helper")],
            "helper": [],
        }
        flow = ForwardDataflow(
            successors=lambda n: calls[n],
            transfer=lambda entry, held: entry | held,
            join=lambda old, new: old & new,
        )
        facts = flow.solve({
            "guarded": frozenset(), "bare": frozenset(),
            "helper": frozenset({"L"}),
        })
        assert facts["helper"] == frozenset()

    def test_all_sites_guarded_keeps_lock(self):
        calls = {
            "one": [(frozenset({"L"}), "helper")],
            "two": [(frozenset({"L"}), "helper")],
            "helper": [],
        }
        flow = ForwardDataflow(
            successors=lambda n: calls[n],
            transfer=lambda entry, held: entry | held,
            join=lambda old, new: old & new,
        )
        facts = flow.solve({
            "one": frozenset(), "two": frozenset(),
            "helper": frozenset({"L"}),
        })
        assert facts["helper"] == frozenset({"L"})


class TestGuards:
    def test_non_monotonic_lattice_raises(self):
        # join always "changes" the fact -> the worklist never drains.
        flow = ForwardDataflow(
            successors=lambda n: [(None, "b" if n == "a" else "a")],
            transfer=lambda fact, _edge: fact + 1,
            join=lambda old, new: new,
        )
        with pytest.raises(RuntimeError, match="converge"):
            flow.solve({"a": 0})
