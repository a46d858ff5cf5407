"""The `repro lint` subcommand: exit codes, formats, and the self-lint gate."""

import json
from pathlib import Path

import repro
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC_TREE = Path(repro.__file__).resolve().parent
BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines.py"
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestExitCodes:
    def test_strict_nonzero_on_findings(self):
        assert main(["lint", str(FIXTURES / "rl001_bad.py"), "--strict"]) == 1

    def test_non_strict_reports_but_exits_zero(self):
        assert main(["lint", str(FIXTURES / "rl001_bad.py")]) == 0

    def test_clean_file_exits_zero_even_strict(self):
        assert main(["lint", str(FIXTURES / "rl001_good.py"), "--strict"]) == 0

    def test_every_positive_fixture_fails_strict(self):
        positives = [
            "rl001_bad.py",
            "rl002_bad.py",
            "rl003_bad.py",
            "rl004_bad.py",
            "sensing/rl005_bad.py",
            "rl006_bad.py",
            "rl007_bad.py",
        ]
        for name in positives:
            assert main(["lint", str(FIXTURES / name), "--strict"]) == 1, name


class TestOutput:
    def test_json_format(self, capsys):
        main(["lint", str(FIXTURES / "rl003_bad.py"), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["count"] >= 3
        assert set(doc["by_rule"]) == {"RL003"}

    def test_text_format_default(self, capsys):
        main(["lint", str(FIXTURES / "rl003_bad.py")])
        out = capsys.readouterr().out
        assert "RL003" in out
        assert "finding(s)" in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("RL001", "RL007", "RL100", "RL104"):
            assert rid in out

    def test_select_restricts_rules(self, capsys):
        main(
            [
                "lint",
                str(FIXTURES / "rl001_bad.py"),
                "--format",
                "json",
                "--select",
                "RL003",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 0

    def test_output_writes_report_file(self, tmp_path, capsys):
        out = tmp_path / "reports" / "lint.json"
        code = main(
            [
                "lint", str(FIXTURES / "rl003_bad.py"),
                "--format", "json", "--output", str(out),
            ]
        )
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["findings"]


class TestSelfLint:
    def test_repo_source_tree_is_clean(self, capsys):
        """`make lint` gates the repo itself (meta-test)."""
        code = main(
            ["lint", str(SRC_TREE), str(BASELINES), str(EXAMPLES), "--strict"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "no findings" in out
