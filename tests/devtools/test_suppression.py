"""Suppression-comment syntax: per-line, per-file, lists, and `all`."""

from pathlib import Path

from repro.devtools.reprolint import (
    get_rules,
    lint_source,
    run_lint,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _lint(source, select=("RL001",)):
    return lint_source(source, Path("inline.py"), get_rules(select=select))


class TestLineSuppression:
    def test_fixture_suppresses_only_commented_line(self):
        findings = [
            f
            for f in run_lint([FIXTURES / "suppress_line.py"]).findings
            if f.rule_id == "RL001"
        ]
        # `still_flagged` keeps its finding; `legacy_draw` is suppressed.
        assert len(findings) == 1
        assert findings[0].line > 10

    def test_rule_list(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # reprolint: disable=RL002,RL001\n"
        )
        assert _lint(src) == []

    def test_all_keyword(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # reprolint: disable=all\n"
        )
        assert _lint(src) == []

    def test_other_rule_not_suppressed(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # reprolint: disable=RL005\n"
        )
        assert [f.rule_id for f in _lint(src)] == ["RL001"]

    def test_case_insensitive_ids(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # reprolint: disable=rl001\n"
        )
        assert _lint(src) == []


class TestFileSuppression:
    def test_fixture_file_wide(self):
        findings = run_lint([FIXTURES / "suppress_file.py"]).findings
        assert [f for f in findings if f.rule_id == "RL001"] == []

    def test_disable_file_from_any_line(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)\n"
            "# reprolint: disable-file=RL001 -- justification here\n"
            "y = np.random.rand(3)\n"
        )
        assert _lint(src, select=["RL001"]) == []

    def test_unrelated_comment_not_a_suppression(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # tolerate reprolint findings\n"
        )
        assert [f.rule_id for f in _lint(src, select=["RL001"])] == ["RL001"]

    def test_spaced_mixed_case_rule_list(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # reprolint: disable= rl003 , RL001,rl002\n"
        )
        assert _lint(src, select=["RL001", "RL002", "RL003"]) == []

    def test_list_suppresses_only_listed_rules(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # reprolint: disable=RL002,RL003\n"
        )
        assert [f.rule_id for f in _lint(src)] == ["RL001"]


class TestSuppressionVsSelection:
    """Satellite: disable-file interacts sanely with --select/--ignore."""

    SRC = (
        "import numpy as np\n"
        "# reprolint: disable-file=RL001\n"
        "x = np.random.rand(3)\n"
    )

    def test_disable_file_beats_select(self):
        assert _lint(self.SRC, select=["RL001"]) == []

    def test_select_still_surfaces_other_rules(self):
        found = _lint(self.SRC, select=["RL001", "RL004"])
        assert [f.rule_id for f in found] == ["RL004"]

    def test_ignore_composes_with_disable_file(self):
        rules = get_rules(ignore=["RL004"])
        found = lint_source(self.SRC, Path("inline.py"), rules)
        assert found == []


class TestProgramRuleSuppression:
    """Satellite: RL1xx findings honour the same comment syntax."""

    def _tree(self, tmp_path, consumer):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text('"""pkg."""\n')
        (pkg / "owner.py").write_text(
            '"""Owns the cache."""\n\nCACHE = {}\n__all__ = ["CACHE"]\n'
        )
        (pkg / "consumer.py").write_text(consumer)
        return pkg

    def test_file_level_disable_covers_program_rule(self, tmp_path):
        pkg = self._tree(
            tmp_path,
            '"""Consumer."""\n'
            "# reprolint: disable-file=RL103 -- known migration debt\n"
            "from pkg import owner\n\n\n"
            "def touch():\n"
            '    """Mutate across the boundary (suppressed file-wide)."""\n'
            '    owner.CACHE["k"] = 1\n',
        )
        run = run_lint([pkg], select=["RL103"])
        assert run.findings == []

    def test_unsuppressed_program_finding_still_fires(self, tmp_path):
        pkg = self._tree(
            tmp_path,
            '"""Consumer."""\n'
            "from pkg import owner\n\n\n"
            "def touch():\n"
            '    """Mutate across the boundary."""\n'
            '    owner.CACHE["k"] = 1\n',
        )
        run = run_lint([pkg], select=["RL103"])
        assert [f.rule_id for f in run.findings] == ["RL103"]
