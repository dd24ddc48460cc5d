"""Output layer tests: deterministic JSON, SARIF structure, and
baseline write/load/apply round-trips."""

import json

import pytest

from repro.analysis.lint import LintViolation
from repro.analysis.output import (
    apply_baseline, baseline_key, load_baseline, render_json, render_sarif,
    write_baseline,
)

V1 = LintViolation(rule="wall-clock-call", path="src/a.py", line=3, col=4,
                   message="inline clock", hint="inject it")
V2 = LintViolation(rule="flow/determinism", path="src/b.py", line=9, col=0,
                   message="unseeded rng")


class TestJson:
    def test_payload_shape(self):
        payload = json.loads(render_json([V1, V2], files=7, stats={"modules": 2}))
        assert payload["summary"] == {
            "files": 7, "violations": 2,
            "by_rule": {"flow/determinism": 1, "wall-clock-call": 1},
        }
        assert payload["flow"] == {"modules": 2}
        assert payload["violations"][0] == {
            "rule": "wall-clock-call", "path": "src/a.py", "line": 3,
            "col": 4, "message": "inline clock", "hint": "inject it",
        }

    def test_byte_deterministic(self):
        first = render_json([V1, V2], files=7, stats={"b": 1, "a": 2})
        second = render_json([V1, V2], files=7, stats={"a": 2, "b": 1})
        assert first == second
        assert first.endswith("\n")


class TestSarif:
    def test_minimal_sarif_document(self):
        document = json.loads(render_sarif([V1]))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"wall-clock-call", "flow/determinism",
                "flow/registry-drift"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "wall-clock-call"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/a.py"
        assert location["region"] == {"startLine": 3, "startColumn": 5}


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        assert write_baseline([V1, V2], path) == 2
        baseline = load_baseline(path)
        assert baseline == {baseline_key(V1), baseline_key(V2)}
        kept, suppressed = apply_baseline([V1, V2], baseline)
        assert kept == [] and suppressed == 2

    def test_new_finding_survives_baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([V1], path)
        kept, suppressed = apply_baseline([V1, V2], load_baseline(path))
        assert kept == [V2] and suppressed == 1

    def test_key_ignores_line_numbers(self):
        moved = LintViolation(rule=V1.rule, path=V1.path, line=99, col=0,
                              message=V1.message, hint=V1.hint)
        assert baseline_key(moved) == baseline_key(V1)

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"findings\": {}}", encoding="utf-8")
        with pytest.raises(ValueError, match="baseline"):
            load_baseline(path)

    def test_missing_baseline_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_baseline(tmp_path / "absent.json")
