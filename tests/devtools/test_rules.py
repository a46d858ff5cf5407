"""Per-rule positive/negative fixture tests for the reprolint rule set."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.reprolint import (
    all_rule_ids,
    get_rules,
    lint_source,
    run_lint,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (positive fixture, expected minimum findings, negative fixture)
CASES = {
    "RL001": ("rl001_bad.py", 5, "rl001_good.py"),
    "RL002": ("rl002_bad.py", 3, "rl002_good.py"),
    "RL003": ("rl003_bad.py", 3, "rl003_good.py"),
    "RL004": ("rl004_bad.py", 1, "rl004_good.py"),
    "RL005": ("sensing/rl005_bad.py", 1, "sensing/rl005_good.py"),
    "RL006": ("rl006_bad.py", 2, "rl006_good.py"),
    "RL007": ("rl007_bad.py", 2, "rl007_good.py"),
}


def rule_findings(path, rule_id):
    return [f for f in run_lint([path]).findings if f.rule_id == rule_id]


class TestRegistry:
    def test_all_builtin_rules_registered(self):
        expected = [f"RL00{i}" for i in range(1, 8)]
        expected += [f"RL10{i}" for i in range(5)]
        assert all_rule_ids() == expected

    def test_select_and_ignore(self):
        assert [r.rule_id for r in get_rules(select=["rl001"])] == ["RL001"]
        assert "RL002" not in [
            r.rule_id for r in get_rules(ignore=["RL002"])
        ]
        with pytest.raises(ValueError, match="unknown rule"):
            get_rules(select=["RL999"])

    def test_rules_carry_metadata(self):
        for rule in get_rules():
            assert rule.title
            assert rule.rationale


@pytest.mark.parametrize("rule_id", sorted(CASES))
class TestFixtures:
    def test_positive_fixture_fires(self, rule_id):
        bad, minimum, _ = CASES[rule_id]
        found = rule_findings(FIXTURES / bad, rule_id)
        assert len(found) >= minimum, [f.format() for f in found]
        for f in found:
            assert f.line > 0
            assert f.message

    def test_negative_fixture_clean(self, rule_id):
        _, _, good = CASES[rule_id]
        found = rule_findings(FIXTURES / good, rule_id)
        assert found == [], [f.format() for f in found]


class TestRuleDetails:
    def test_rl001_flags_legacy_import(self):
        found = rule_findings(FIXTURES / "rl001_bad.py", "RL001")
        assert any("import" in f.message for f in found)

    def test_rl004_inconsistent_all(self):
        found = rule_findings(FIXTURES / "rl004_inconsistent.py", "RL004")
        assert len(found) == 1
        assert "ghost_function" in found[0].message

    def test_rl005_only_in_hot_paths(self):
        assert rule_findings(FIXTURES / "rl005_cold_path.py", "RL005") == []

    def test_rl000_on_syntax_error(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        found = run_lint([broken]).findings
        assert [f.rule_id for f in found] == ["RL000"]

    def test_lint_source_direct(self):
        findings = lint_source(
            "import numpy as np\nx = np.random.rand(4)\n",
            Path("inline.py"),
            get_rules(select=["RL001"]),
        )
        assert [f.rule_id for f in findings] == ["RL001"]
        assert findings[0].line == 2

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint([Path("does/not/exist")])


class TestTolerantLoading:
    """Satellite: odd encodings load; undecodable files become RL000."""

    def test_utf8_bom_is_stripped(self, tmp_path):
        src = 'import numpy as np\nx = np.random.rand(3)\n__all__ = ["x"]\n'
        path = tmp_path / "bom.py"
        path.write_bytes(b"\xef\xbb\xbf" + src.encode("utf-8"))
        found = run_lint([path]).findings
        # The BOM neither crashes the parse nor shifts the findings.
        assert [f.rule_id for f in found] == ["RL001"]
        assert found[0].line == 2

    def test_coding_declaration_is_honoured(self, tmp_path):
        src = (
            '# -*- coding: latin-1 -*-\n'
            'LABEL = "caf\xe9"\n'
            '__all__ = ["LABEL"]\n'
        )
        path = tmp_path / "latin.py"
        path.write_bytes(src.encode("latin-1"))
        assert run_lint([path]).findings == []

    def test_undecodable_bytes_become_rl000(self, tmp_path):
        path = tmp_path / "binary.py"
        path.write_bytes(b"x = '\xff\xfe\x00'\n")
        found = run_lint([path]).findings
        assert [f.rule_id for f in found] == ["RL000"]
        assert found[0].line == 1
        assert "cannot be decoded" in found[0].message

    def test_unknown_codec_becomes_rl000(self, tmp_path):
        path = tmp_path / "bogus.py"
        path.write_bytes(b"# -*- coding: not-a-codec -*-\nx = 1\n")
        found = run_lint([path]).findings
        assert [f.rule_id for f in found] == ["RL000"]

    def test_unreadable_file_becomes_rl000(self, tmp_path, capsys):
        src = 'import numpy as np\nx = np.random.rand(3)\n__all__ = ["x"]\n'
        (tmp_path / "ok.py").write_text(src)
        (tmp_path / "broken.py").symlink_to(tmp_path / "missing.py")
        found = run_lint([tmp_path]).findings
        # The dangling link is one finding; its neighbour is still linted.
        assert [(Path(f.path).name, f.rule_id, f.line) for f in found] == [
            ("broken.py", "RL000", 1),
            ("ok.py", "RL001", 2),
        ]
        assert found[0].message.startswith("file cannot be read: [Errno 2]")
        assert main(["lint", str(tmp_path)]) == 0
        assert f"{tmp_path / 'broken.py'}:1:0: RL000" in capsys.readouterr().out

    def test_read_and_decode_failures_are_worded_apart(self, tmp_path):
        (tmp_path / "broken.py").symlink_to(tmp_path / "missing.py")
        (tmp_path / "latin.py").write_bytes('LABEL = "caf\xe9"\n'.encode("latin-1"))
        found = {Path(f.path).name: f for f in run_lint([tmp_path]).findings}
        assert {name: f.rule_id for name, f in found.items()} == {
            "broken.py": "RL000",
            "latin.py": "RL000",
        }
        assert found["broken.py"].message.startswith("file cannot be read: ")
        assert found["latin.py"].message.startswith("file cannot be decoded: ")
