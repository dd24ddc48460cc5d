"""Call graph tests: edge resolution strategies, the ambiguous-receiver
cap, and reachability with deterministic witness chains."""

from repro.analysis.callgraph import AMBIG_LIMIT, CallGraph
from repro.analysis.symbols import SymbolTable, parse_files


def graph(make_tree, files):
    root = make_tree(files)
    table = SymbolTable.build(
        parse_files(sorted(str(p) for p in root.rglob("*.py"))))
    return CallGraph(table)


def callees(cg, qualname):
    return sorted({site.callee for site in cg.callees(qualname)})


class TestEdgeResolution:
    def test_direct_and_imported_calls(self, make_tree):
        cg = graph(make_tree, {
            "src/pkg/a.py": "def helper():\n    pass\n",
            "src/pkg/b.py": (
                "from pkg.a import helper\n\n"
                "def local():\n    pass\n\n"
                "def caller():\n"
                "    helper()\n"
                "    local()\n"
            ),
        })
        assert callees(cg, "pkg.b.caller") == ["pkg.a.helper", "pkg.b.local"]

    def test_instantiation_links_to_init(self, make_tree):
        cg = graph(make_tree, {
            "src/pkg/a.py": (
                "class Engine:\n"
                "    def __init__(self):\n        pass\n"
            ),
            "src/pkg/b.py": (
                "from pkg.a import Engine\n\n"
                "def boot():\n"
                "    return Engine()\n"
            ),
        })
        assert callees(cg, "pkg.b.boot") == ["pkg.a.Engine.__init__"]

    def test_self_method_call(self, make_tree):
        cg = graph(make_tree, {
            "src/pkg/a.py": (
                "class C:\n"
                "    def one(self):\n"
                "        self.two()\n"
                "    def two(self):\n"
                "        pass\n"
            ),
        })
        assert callees(cg, "pkg.a.C.one") == ["pkg.a.C.two"]

    def test_self_method_through_base(self, make_tree):
        cg = graph(make_tree, {
            "src/pkg/a.py": (
                "class Base:\n"
                "    def shared(self):\n        pass\n\n"
                "class Child(Base):\n"
                "    def go(self):\n"
                "        self.shared()\n"
            ),
        })
        assert callees(cg, "pkg.a.Child.go") == ["pkg.a.Base.shared"]

    def test_opaque_receiver_fans_out_by_name(self, make_tree):
        cg = graph(make_tree, {
            "src/pkg/a.py": (
                "class X:\n"
                "    def process(self):\n        pass\n\n"
                "class Y:\n"
                "    def process(self):\n        pass\n"
            ),
            "src/pkg/b.py": (
                "def run(obj):\n"
                "    obj.process()\n"
            ),
        })
        assert callees(cg, "pkg.b.run") == ["pkg.a.X.process", "pkg.a.Y.process"]

    def test_generic_names_beyond_cap_are_dropped(self, make_tree):
        classes = "\n\n".join(
            f"class C{i}:\n    def handle(self):\n        pass"
            for i in range(AMBIG_LIMIT + 1)
        )
        cg = graph(make_tree, {
            "src/pkg/a.py": classes + "\n",
            "src/pkg/b.py": "def run(obj):\n    obj.handle()\n",
        })
        assert callees(cg, "pkg.b.run") == []
        assert cg.unresolved.get(".handle") == 1


class TestReachability:
    FILES = {
        "src/pkg/a.py": (
            "def entry():\n"
            "    middle()\n\n"
            "def middle():\n"
            "    leaf()\n\n"
            "def leaf():\n    pass\n\n"
            "def orphan():\n    leaf()\n"
        ),
    }

    def test_witness_chains(self, make_tree):
        cg = graph(make_tree, self.FILES)
        chains = cg.reachable(["pkg.a.entry"])
        assert chains["pkg.a.leaf"] == (
            "pkg.a.entry", "pkg.a.middle", "pkg.a.leaf")
        assert "pkg.a.orphan" not in chains

    def test_shortest_chain_wins(self, make_tree):
        cg = graph(make_tree, {
            "src/pkg/a.py": (
                "def entry():\n"
                "    direct()\n"
                "    hop()\n\n"
                "def hop():\n"
                "    direct()\n\n"
                "def direct():\n    pass\n"
            ),
        })
        chains = cg.reachable(["pkg.a.entry"])
        assert chains["pkg.a.direct"] == ("pkg.a.entry", "pkg.a.direct")

    def test_recursion_terminates(self, make_tree):
        cg = graph(make_tree, {
            "src/pkg/a.py": (
                "def ping():\n    pong()\n\n"
                "def pong():\n    ping()\n"
            ),
        })
        chains = cg.reachable(["pkg.a.ping"])
        assert chains == {"pkg.a.ping": ("pkg.a.ping",),
                          "pkg.a.pong": ("pkg.a.ping", "pkg.a.pong")}

    def test_two_entries_tie_break_lexicographically(self, make_tree):
        cg = graph(make_tree, {
            "src/pkg/a.py": (
                "def x():\n    shared()\n\n"
                "def y():\n    shared()\n\n"
                "def shared():\n    pass\n"
            ),
        })
        first = cg.reachable(["pkg.a.x", "pkg.a.y"])
        assert first == cg.reachable(["pkg.a.y", "pkg.a.x"])
        assert first["pkg.a.shared"] == ("pkg.a.x", "pkg.a.shared")
        # An entry keeps its own one-element chain even when another
        # entry reaches it.
        cg = graph(make_tree, {
            "src/pkg/b.py": (
                "def x():\n    y()\n\n"
                "def y():\n    pass\n"
            ),
        })
        assert cg.reachable(["pkg.b.x", "pkg.b.y"])["pkg.b.y"] == ("pkg.b.y",)

    def test_unknown_entry_ignored(self, make_tree):
        cg = graph(make_tree, self.FILES)
        assert cg.reachable(["pkg.nope.entry"]) == {}
