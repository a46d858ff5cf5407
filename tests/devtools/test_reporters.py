"""Text and JSON reporter output formats."""

import json
from pathlib import Path

from repro.devtools.reprolint import (
    JSON_SCHEMA_VERSION,
    Finding,
    render_json,
    render_text,
    run_lint,
)

FIXTURES = Path(__file__).parent / "fixtures"

SAMPLE = [
    Finding(path="a.py", line=3, col=4, rule_id="RL001", message="legacy rng"),
    Finding(path="a.py", line=9, col=0, rule_id="RL003", message="mutable"),
    Finding(path="b.py", line=1, col=0, rule_id="RL001", message="legacy rng"),
]


class TestTextReporter:
    def test_empty(self):
        assert render_text([]) == "reprolint: no findings"

    def test_lines_and_summary(self):
        out = render_text(SAMPLE)
        lines = out.splitlines()
        assert lines[0] == "a.py:3:4: RL001 legacy rng"
        assert "3 finding(s) in 2 file(s)" in lines[-1]
        assert "RL001×2" in lines[-1] and "RL003×1" in lines[-1]


class TestJsonReporter:
    def test_schema(self):
        doc = json.loads(render_json(SAMPLE))
        assert doc["version"] == JSON_SCHEMA_VERSION
        assert doc["count"] == 3
        assert doc["by_rule"] == {"RL001": 2, "RL003": 1}
        assert doc["findings"][0] == {
            "path": "a.py",
            "line": 3,
            "col": 4,
            "rule": "RL001",
            "message": "legacy rng",
        }

    def test_empty_document(self):
        doc = json.loads(render_json([]))
        assert doc["count"] == 0
        assert doc["findings"] == []
        assert doc["by_rule"] == {}

    def test_round_trip_on_fixture(self):
        findings = run_lint([FIXTURES / "rl003_bad.py"]).findings
        doc = json.loads(render_json(findings))
        assert doc["count"] == len(findings) >= 3
        assert all(f["rule"] == "RL003" for f in doc["findings"])


class TestDeterminism:
    """Satellite: reporters are byte-stable regardless of input order."""

    def test_json_invariant_under_input_order(self):
        assert render_json(list(reversed(SAMPLE))) == render_json(SAMPLE)

    def test_text_invariant_under_input_order(self):
        assert render_text(list(reversed(SAMPLE))) == render_text(SAMPLE)

    def test_json_by_rule_keys_sorted(self):
        shuffled = [SAMPLE[1], SAMPLE[2], SAMPLE[0]]
        doc = json.loads(render_json(shuffled))
        assert list(doc["by_rule"]) == sorted(doc["by_rule"])

    def test_json_findings_sorted(self):
        doc = json.loads(render_json(list(reversed(SAMPLE))))
        order = [
            (f["path"], f["line"], f["col"], f["rule"])
            for f in doc["findings"]
        ]
        assert order == sorted(order)
