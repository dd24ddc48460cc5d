"""Linter tests: every rule fires on violating code and stays quiet on
clean code, suppressions work at line and file scope, and the repo's own
tree passes the gate (self-hosting)."""

import pytest

from repro.analysis import (
    RULES,
    available_rules,
    format_violations,
    lint_paths,
    lint_source,
    register_rule,
)
from repro.analysis.lint import LintRule


def codes(text: str, select=None) -> list[str]:
    return [v.rule for v in lint_source(text, select=select)]


class TestGlobalNumpyRandom:
    def test_flags_global_rng(self):
        assert codes("import numpy as np\nx = np.random.rand(3)\n") == [
            "global-numpy-random"
        ]

    def test_flags_seed_and_full_module_name(self):
        text = "import numpy\nnumpy.random.seed(0)\n"
        assert codes(text) == ["global-numpy-random"]

    def test_generator_construction_allowed(self):
        text = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "gen: np.random.Generator = rng\n"
            "x = rng.standard_normal(3)\n"
        )
        assert codes(text) == []


class TestWallClock:
    def test_flags_inline_calls(self):
        text = "import time\nstart = time.perf_counter()\n"
        assert codes(text) == ["wall-clock-call"]

    def test_flags_datetime_now(self):
        text = "import datetime\nstamp = datetime.datetime.now()\n"
        assert codes(text) == ["wall-clock-call"]

    def test_injectable_default_reference_allowed(self):
        # Referencing the function (without calling) is the injection idiom.
        text = (
            "import time\n"
            "def run(clock=None):\n"
            "    clock = clock or time.perf_counter\n"
            "    return clock()\n"
        )
        assert codes(text) == []


class TestMutableDefault:
    def test_flags_literal_and_call_defaults(self):
        text = (
            "def f(a=[]):\n    return a\n"
            "def g(b=dict()):\n    return b\n"
            "def h(*, c={1}):\n    return c\n"
        )
        assert codes(text) == ["mutable-default-arg"] * 3

    def test_immutable_defaults_allowed(self):
        text = "def f(a=None, b=(), c=0, d='x'):\n    return a, b, c, d\n"
        assert codes(text) == []


class TestBlanketExcept:
    def test_flags_bare_and_broad(self):
        text = (
            "try:\n    pass\nexcept:\n    pass\n"
            "try:\n    pass\nexcept Exception:\n    pass\n"
        )
        assert codes(text, select=["blanket-except"]) == ["blanket-except"] * 2

    def test_reraise_allowed(self):
        text = (
            "try:\n    pass\n"
            "except Exception:\n    cleanup = 1\n    raise\n"
        )
        assert codes(text) == []

    def test_specific_exception_allowed(self):
        text = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert codes(text, select=["blanket-except"]) == []


class TestModuleSuperInit:
    def test_flags_assignment_before_super(self):
        text = (
            "class Net(Module):\n"
            "    def __init__(self):\n"
            "        self.w = 1\n"
            "        super().__init__()\n"
        )
        assert codes(text) == ["module-super-init"]

    def test_flags_missing_super_entirely(self):
        text = (
            "class Net(nn.Module):\n"
            "    def __init__(self):\n"
            "        self.w = 1\n"
        )
        assert codes(text) == ["module-super-init"]

    def test_clean_module_and_non_module_classes(self):
        text = (
            "class Net(Module):\n"
            "    def __init__(self):\n"
            "        super().__init__()\n"
            "        self.w = 1\n"
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self.w = 1\n"
        )
        assert codes(text) == []


class TestForwardConventions:
    def test_flags_static_forward(self):
        text = (
            "class Net(Module):\n"
            "    def __init__(self):\n"
            "        super().__init__()\n"
            "    @staticmethod\n"
            "    def forward(x):\n"
            "        return x\n"
        )
        assert codes(text) == ["forward-conventions"]

    def test_flags_explicit_forward_call(self):
        assert codes("y = layer.forward(x)\n") == ["forward-conventions"]

    def test_self_forward_and_direct_call_allowed(self):
        text = (
            "class Net(Module):\n"
            "    def __init__(self):\n"
            "        super().__init__()\n"
            "    def forward(self, x):\n"
            "        return self.inner(x)\n"
            "    def pooled(self, x):\n"
            "        return self.forward(x)\n"
        )
        assert codes(text) == []


class TestDirectThread:
    PRIMITIVES = ("Thread", "Lock", "RLock", "Condition", "Event")

    def test_flags_attribute_form(self):
        for name in self.PRIMITIVES:
            text = (
                "import threading\n"
                f"t = threading.{name}()\n"
            )
            assert codes(text) == ["direct-thread"], name

    def test_flags_bare_name_form(self):
        for name in self.PRIMITIVES:
            text = (
                f"from threading import {name}\n"
                f"t = {name}()\n"
            )
            assert codes(text) == ["direct-thread"], name

    def test_runtime_package_is_not_exempt(self):
        text = "import threading\nt = threading.Thread(target=work)\n"
        violations = lint_source(text, path="src/repro/runtime/engine.py")
        assert [v.rule for v in violations] == ["direct-thread"]

    def test_non_constructing_threading_calls_allowed(self):
        text = (
            "import threading\n"
            "alive = threading.enumerate()\n"
            "me = threading.get_ident()\n"
        )
        assert codes(text) == []

    def test_line_suppression_is_the_escape_hatch(self):
        text = (
            "import threading\n"
            "t = threading.Thread(target=work)"
            "  # lint: disable=direct-thread\n"
        )
        assert codes(text) == []


class TestDirectProcess:
    def test_flags_process_attribute_form(self):
        text = (
            "import multiprocessing\n"
            "p = multiprocessing.Process(target=work)\n"
        )
        assert codes(text) == ["direct-process"]

    def test_flags_mp_alias_and_pool(self):
        text = (
            "import multiprocessing as mp\n"
            "pool = mp.Pool(4)\n"
        )
        assert codes(text) == ["direct-process"]

    def test_flags_shared_memory_construction(self):
        text = (
            "from multiprocessing import shared_memory\n"
            "seg = shared_memory.SharedMemory(create=True, size=64)\n"
        )
        assert codes(text) == ["direct-process"]

    def test_flags_bare_name_form(self):
        text = (
            "from multiprocessing import Process\n"
            "p = Process(target=work)\n"
        )
        assert codes(text) == ["direct-process"]

    def test_flags_get_context(self):
        text = (
            "import multiprocessing\n"
            "ctx = multiprocessing.get_context('fork')\n"
        )
        assert codes(text) == ["direct-process"]

    def test_runtime_package_is_exempt(self):
        text = (
            "import multiprocessing\n"
            "p = multiprocessing.Process(target=work)\n"
        )
        assert lint_source(text, path="src/repro/runtime/procexec.py") == []

    def test_tests_and_benchmarks_are_exempt(self):
        text = (
            "import multiprocessing\n"
            "p = multiprocessing.Process(target=work)\n"
        )
        assert lint_source(text, path="tests/runtime/test_procexec.py") == []
        assert lint_source(text, path="benchmarks/bench_runtime_throughput.py") == []

    def test_bare_queue_is_not_flagged(self):
        # ``Queue`` unqualified is usually ``queue.Queue`` — only the
        # mp-module attribute form is a process-executor bypass.
        text = (
            "from queue import Queue\n"
            "q = Queue()\n"
        )
        assert codes(text) == []

    def test_line_suppression_is_the_escape_hatch(self):
        text = (
            "import multiprocessing\n"
            "p = multiprocessing.Process(target=work)"
            "  # lint: disable=direct-process\n"
        )
        assert codes(text) == []


class TestSuppression:
    def test_line_suppression(self):
        text = (
            "import time\n"
            "a = time.time()  # lint: disable=wall-clock-call\n"
            "b = time.time()\n"
        )
        violations = lint_source(text)
        assert [v.line for v in violations] == [3]

    def test_line_suppression_all_rules(self):
        text = "import time\na = time.time()  # lint: disable\n"
        assert codes(text) == []

    def test_file_suppression(self):
        text = (
            "# lint: disable-file=wall-clock-call\n"
            "import time\n"
            "a = time.time()\nb = time.time()\n"
        )
        assert codes(text) == []

    def test_file_suppression_leaves_other_rules(self):
        text = (
            "# lint: disable-file=wall-clock-call\n"
            "import time\n"
            "a = time.time()\n"
            "def f(x=[]):\n    return x\n"
        )
        assert codes(text) == ["mutable-default-arg"]


class TestEngine:
    def test_select_restricts_rules(self):
        text = "import time\na = time.time()\ndef f(x=[]):\n    return x\n"
        assert codes(text, select=["mutable-default-arg"]) == ["mutable-default-arg"]

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="unknown lint rule"):
            lint_source("x = 1\n", select=["no-such-rule"])

    def test_syntax_error_is_a_violation(self):
        violations = lint_source("def f(:\n")
        assert [v.rule for v in violations] == ["syntax-error"]

    def test_registry_lists_builtins(self):
        names = {name for name, _ in available_rules()}
        assert {
            "global-numpy-random", "wall-clock-call", "mutable-default-arg",
            "blanket-except", "module-super-init", "forward-conventions",
            "direct-thread", "direct-process",
        } <= names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            @register_rule
            class Clash(LintRule):
                name = "blanket-except"
                description = "clash"

    def test_custom_rule_roundtrip(self):
        @register_rule
        class NoPrint(LintRule):
            name = "test-no-print"
            description = "forbid print in tests of the rule engine"

            def visit_Call(self, node):
                import ast

                if isinstance(node.func, ast.Name) and node.func.id == "print":
                    self.report(node, "print call")
                self.generic_visit(node)

        try:
            assert codes("print('hi')\n", select=["test-no-print"]) == [
                "test-no-print"
            ]
        finally:
            del RULES["test-no-print"]

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text("def f(x=[]):\n    return x\n")
        (tmp_path / "pkg" / "good.py").write_text("def f(x=None):\n    return x\n")
        violations = lint_paths([tmp_path])
        assert len(violations) == 1
        assert violations[0].path.endswith("bad.py")

    def test_format_violations(self):
        violations = lint_source("def f(x=[]):\n    return x\n", path="m.py")
        rendered = format_violations(violations)
        assert "m.py:1:" in rendered
        assert "[mutable-default-arg]" in rendered
        assert rendered.endswith("1 violation")


class TestSelfHosting:
    def test_src_tree_lints_clean(self):
        violations = lint_paths(["src"])
        assert violations == [], format_violations(violations)


class TestCli:
    def test_lint_clean_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["lint", "src/repro/analysis"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_violations_exit_one(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", str(bad)]) == 1
        assert "mutable-default-arg" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        assert "blanket-except" in capsys.readouterr().out


class TestPerTimestepLoop:
    def test_flags_loop_over_unpacked_seq_axis(self):
        text = (
            "batch, seq, dim = x.shape\n"
            "for t in range(seq):\n"
            "    step(x[:, t])\n"
        )
        assert codes(text, select=["per-timestep-loop"]) == ["per-timestep-loop"]

    def test_flags_loop_over_shape_subscript_binding(self):
        text = (
            "seq_len = x.shape[1]\n"
            "for t in range(seq_len):\n"
            "    step(x[:, t])\n"
        )
        assert codes(text, select=["per-timestep-loop"]) == ["per-timestep-loop"]

    def test_flags_direct_shape_range(self):
        text = "for t in range(x.shape[1]):\n    step(x[:, t])\n"
        assert codes(text, select=["per-timestep-loop"]) == ["per-timestep-loop"]

    def test_flags_comprehension(self):
        text = (
            "batch, seq = x.shape\n"
            "outputs = [step(x[:, t]) for t in range(seq)]\n"
        )
        assert codes(text, select=["per-timestep-loop"]) == ["per-timestep-loop"]

    def test_batch_axis_loop_allowed(self):
        # Position 0 of the shape unpack is the batch axis, not time.
        text = (
            "batch, seq = x.shape\n"
            "for b in range(batch):\n"
            "    step(x[b])\n"
        )
        assert codes(text, select=["per-timestep-loop"]) == []

    def test_plain_len_loop_allowed(self):
        text = "for i in range(len(items)):\n    use(items[i])\n"
        assert codes(text, select=["per-timestep-loop"]) == []

    def test_kernels_module_exempt(self):
        text = (
            "batch, seq, dim = x.shape\n"
            "for t in range(seq):\n"
            "    step(x[:, t])\n"
        )
        assert lint_source(
            text, path="src/repro/nn/kernels.py", select=["per-timestep-loop"]
        ) == []

    def test_line_suppression(self):
        text = (
            "batch, seq, dim = x.shape\n"
            "for t in range(seq):  # lint: disable=per-timestep-loop\n"
            "    step(x[:, t])\n"
        )
        assert codes(text, select=["per-timestep-loop"]) == []


class TestSilentExcept:
    def test_flags_pass_only_handler(self):
        text = (
            "try:\n"
            "    risky()\n"
            "except ValueError:\n"
            "    pass\n"
        )
        assert codes(text, select=["silent-except"]) == ["silent-except"]

    def test_flags_docstring_only_handler(self):
        # A bare constant expression is still a no-op body.
        text = (
            "try:\n"
            "    risky()\n"
            "except KeyError:\n"
            "    'tolerated'\n"
        )
        assert codes(text, select=["silent-except"]) == ["silent-except"]

    def test_handler_leaving_evidence_allowed(self):
        text = (
            "try:\n"
            "    risky()\n"
            "except ValueError:\n"
            "    failures.inc()\n"
        )
        assert codes(text, select=["silent-except"]) == []

    def test_fallback_assignment_allowed(self):
        text = (
            "try:\n"
            "    value = risky()\n"
            "except KeyError:\n"
            "    value = None\n"
        )
        assert codes(text, select=["silent-except"]) == []

    def test_line_suppression(self):
        text = (
            "try:\n"
            "    risky()\n"
            "except ValueError:  # lint: disable=silent-except\n"
            "    pass\n"
        )
        assert codes(text, select=["silent-except"]) == []


class TestDirectLLMCall:
    SELECT = ["direct-llm-call"]

    def _codes(self, text: str, path: str = "src/repro/core/features.py"):
        return [v.rule for v in lint_source(text, path=path, select=self.SELECT)]

    def test_flags_provider_construction(self):
        assert self._codes("llm = SimulatedLLM(seed=0)\n") == ["direct-llm-call"]
        assert self._codes("llm = repro.llm.FlakyLLM(error_rate=0.1)\n") == [
            "direct-llm-call"
        ]

    def test_flags_complete_calls_on_foreign_objects(self):
        assert self._codes("text = llm.complete(prompt)\n") == ["direct-llm-call"]
        assert self._codes("texts = provider.complete_batch(prompts)\n") == [
            "direct-llm-call"
        ]

    def test_self_complete_is_the_middleware_idiom(self):
        # Middleware/providers forward to themselves and their inners —
        # only the former is allowed outside repro.llm.
        assert self._codes("value = self.complete(prompt)\n") == []
        assert self._codes("value = self.inner.complete(prompt)\n") == [
            "direct-llm-call"
        ]

    def test_sanctioned_construction_sites_exempt(self):
        text = "llm = SimulatedLLM(seed=0)\ntext = llm.complete(prompt)\n"
        for path in ("src/repro/llm/factory.py", "src/repro/testing/invariants.py",
                     "tests/llm/test_simulated.py", "benchmarks/bench_llm_traffic.py"):
            assert self._codes(text, path) == []

    def test_injected_provider_usage_allowed(self):
        # The sanctioned shape: take a provider, hand it to the interpreter.
        text = (
            "def fit(llm):\n"
            "    interpreter = EventInterpreter(llm)\n"
            "    return interpreter.interpret_store(store)\n"
        )
        assert self._codes(text) == []

    def test_rule_is_registered(self):
        names = {name for name, _ in available_rules()}
        assert "direct-llm-call" in names


class TestFaultPointAllowlist:
    SELECT = ["fault-point-outside-allowlist"]

    def _codes(self, text: str, path: str) -> list[str]:
        return [v.rule for v in lint_source(text, path=path, select=self.SELECT)]

    def test_registered_point_in_its_module_allowed(self):
        text = "reports = fault_point('runtime.worker.score', reports)\n"
        assert self._codes(text, "src/repro/runtime/supervisor.py") == []

    def test_registered_point_in_wrong_module_flagged(self):
        # Planted defect: a worker hook smuggled into the model code.
        text = "x = fault_point('runtime.worker.score', x)\n"
        assert self._codes(text, "src/repro/core/model.py") == [
            "fault-point-outside-allowlist"
        ]

    def test_unregistered_name_flagged(self):
        text = "x = fault_point('core.model.forward', x)\n"
        assert self._codes(text, "src/repro/core/model.py") == [
            "fault-point-outside-allowlist"
        ]

    def test_dynamic_name_flagged(self):
        text = "x = fault_point(point_name, x)\n"
        assert self._codes(text, "src/repro/runtime/worker.py") == [
            "fault-point-outside-allowlist"
        ]

    def test_attribute_call_checked_too(self):
        text = "x = faultpoints.fault_point('nope.nope', x)\n"
        assert self._codes(text, "src/repro/runtime/worker.py") == [
            "fault-point-outside-allowlist"
        ]

    def test_harness_and_tests_exempt(self):
        text = "x = fault_point('anything.goes', x)\n"
        assert self._codes(text, "src/repro/testing/harness.py") == []
        assert self._codes(text, "tests/testing/test_faultpoints.py") == []

    def test_repo_tree_hosts_every_registered_point(self):
        # Self-hosting: the live tree passes, i.e. every planted hook
        # sits in the module its registration names.
        from pathlib import Path

        violations = lint_paths([Path("src")], select=self.SELECT)
        assert violations == []


class TestExceptDedup:
    def test_bare_except_with_noop_body_one_finding(self):
        text = (
            "try:\n"
            "    risky()\n"
            "except:\n"
            "    pass\n"
        )
        assert codes(text, select=["blanket-except", "silent-except"]) == [
            "blanket-except"
        ]

    def test_blanket_exception_with_noop_body_one_finding(self):
        text = (
            "try:\n"
            "    risky()\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert codes(text, select=["blanket-except", "silent-except"]) == [
            "blanket-except"
        ]

    def test_specific_silent_handler_still_flagged(self):
        text = (
            "try:\n"
            "    risky()\n"
            "except ValueError:\n"
            "    pass\n"
        )
        assert codes(text, select=["blanket-except", "silent-except"]) == [
            "silent-except"
        ]


class TestStableOrdering:
    def test_findings_sorted_by_path_line_col_rule(self, tmp_path):
        (tmp_path / "b.py").write_text(
            "import time\n"
            "def f(x=[]):\n"
            "    return time.time()\n",
            encoding="utf-8",
        )
        (tmp_path / "a.py").write_text(
            "def g(y={}):\n    return y\n", encoding="utf-8",
        )
        violations = lint_paths([tmp_path / "b.py", tmp_path / "a.py"])
        keys = [(v.path, v.line, v.col, v.rule) for v in violations]
        assert keys == sorted(keys)
        assert [v.rule for v in violations] == [
            "mutable-default-arg", "mutable-default-arg", "wall-clock-call",
        ]


class TestDirectoryExemptions:
    def test_benchmarks_exempt_from_wall_clock(self, tmp_path):
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bench_x.py").write_text(
            "import time\n\ndef run():\n    return time.perf_counter()\n",
            encoding="utf-8",
        )
        assert lint_paths([bench]) == []

    def test_exemption_is_per_rule(self, tmp_path):
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bench_x.py").write_text(
            "def run(x=[]):\n    return x\n", encoding="utf-8",
        )
        assert [v.rule for v in lint_paths([bench])] == ["mutable-default-arg"]

    def test_other_trees_still_checked(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import time\n\ndef run():\n    return time.perf_counter()\n",
            encoding="utf-8",
        )
        assert [v.rule for v in lint_paths([tmp_path])] == ["wall-clock-call"]


class TestNonexistentPath:
    def test_lint_paths_raises(self):
        import pytest

        with pytest.raises(FileNotFoundError, match="does not exist"):
            lint_paths(["definitely/not/here"])

    def test_cli_exits_nonzero_with_clear_error(self, capsys):
        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "definitely/not/here"])
        assert "path does not exist: definitely/not/here" in str(excinfo.value)

    def test_cli_mixed_good_and_bad_paths_still_errors(self):
        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["lint", "src/repro/analysis", "definitely/not/here"])


class TestCliFlowIntegration:
    def test_list_rules_includes_flow_passes(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "flow/determinism" in out
        assert "flow/registry-drift" in out

    def test_select_flow_wildcard_runs_clean_on_src(self, capsys):
        from repro.cli import main

        assert main(["lint", "src", "--select", "flow/*"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_flow_selector_errors(self, capsys):
        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit, match="flow/nope"):
            main(["lint", "src/repro/analysis", "--select", "flow/nope"])

    def test_format_json_parses_and_exits_by_violations(self, tmp_path, capsys):
        import json

        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["violations"] == 1
        assert payload["violations"][0]["rule"] == "mutable-default-arg"

    def test_format_sarif_parses(self, tmp_path, capsys):
        import json

        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        assert main(["lint", str(bad), "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"][0]["ruleId"] == "mutable-default-arg"

    def test_baseline_roundtrip_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(bad), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_write_baseline_requires_baseline_path(self):
        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit, match="requires --baseline"):
            main(["lint", "src/repro/analysis", "--write-baseline"])


class TestDetectorOutsideRegistry:
    DETECTOR = (
        "class ShadowDetector:\n"
        "    def score_window(self, system, window):\n"
        "        return 0.0\n"
    )

    def test_flags_detector_class_outside_registry(self):
        violations = lint_source(self.DETECTOR, path="src/repro/deploy/custom.py")
        assert [v.rule for v in violations] == ["detector-outside-registry"]
        assert "ShadowDetector" in violations[0].message

    def test_flags_batch_scorer_outside_registry(self):
        text = (
            "class BatchShadow:\n"
            "    def score_windows(self, system, windows):\n"
            "        return [0.0 for _ in windows]\n"
        )
        violations = lint_source(text, path="src/repro/runtime/custom.py")
        assert [v.rule for v in violations] == ["detector-outside-registry"]
        assert "BatchShadow.score_windows" in violations[0].message
        assert lint_source(text, path="src/repro/detectors/custom.py") == []

    def test_detectors_package_is_exempt(self):
        assert lint_source(self.DETECTOR,
                           path="src/repro/detectors/custom.py") == []

    def test_tests_and_benchmarks_are_exempt(self):
        assert lint_source(self.DETECTOR, path="tests/detectors/test_x.py") == []
        assert lint_source(self.DETECTOR, path="benchmarks/bench_x.py") == []

    def test_plain_function_allowed(self):
        text = "def score_window(system, window):\n    return 0.0\n"
        assert codes(text) == []

    def test_line_suppression_is_the_escape_hatch(self):
        text = (
            "class Adapter:\n"
            "    def score_window(self, system, window):"
            "  # lint: disable=detector-outside-registry\n"
            "        return 0.0\n"
        )
        assert lint_source(text, path="src/repro/deploy/custom.py") == []


class TestUnmanagedCheckpointWrite:
    SAVEZ = (
        "import numpy as np\n"
        "def snapshot(path, arrays):\n"
        "    np.savez(path, **arrays)\n"
    )

    def test_flags_raw_savez_in_production_code(self):
        violations = lint_source(self.SAVEZ, path="src/repro/deploy/dump.py")
        assert [v.rule for v in violations] == ["unmanaged-checkpoint-write"]
        assert "np.savez" in violations[0].message

    def test_flags_savez_compressed_and_full_module_name(self):
        text = ("import numpy\n"
                "def f(p, a):\n"
                "    numpy.savez_compressed(p, **a)\n")
        violations = lint_source(text, path="src/repro/core/extra.py")
        assert [v.rule for v in violations] == ["unmanaged-checkpoint-write"]

    def test_flags_bare_name_import(self):
        text = ("from numpy import savez\n"
                "def f(p, a):\n"
                "    savez(p, **a)\n")
        violations = lint_source(text, path="src/repro/core/extra.py")
        assert [v.rule for v in violations] == ["unmanaged-checkpoint-write"]

    def test_manifest_aware_saver_and_serializers_exempt(self):
        for path in ("src/repro/core/checkpoint.py",
                     "src/repro/nn/module.py",
                     "src/repro/core/pipeline.py",
                     "tests/core/test_x.py",
                     "benchmarks/bench_x.py"):
            assert lint_source(self.SAVEZ, path=path) == [], path

    def test_np_load_and_other_attrs_allowed(self):
        text = ("import numpy as np\n"
                "def f(p):\n"
                "    return np.load(p)\n")
        assert lint_source(text, path="src/repro/deploy/dump.py") == []

    def test_line_suppression_is_the_escape_hatch(self):
        text = ("import numpy as np\n"
                "def f(p, a):\n"
                "    np.savez(p, **a)"
                "  # lint: disable=unmanaged-checkpoint-write\n")
        assert lint_source(text, path="src/repro/deploy/dump.py") == []
