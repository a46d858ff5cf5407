"""Executable-documentation checks: doctests and example smoke runs."""

import doctest
import functools
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core.windowing",
            "repro.coding.bitstream",
        ],
    )
    def test_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0  # the docs really contain examples

    def test_package_quickstart_doctest(self):
        """The quickstart in the package docstring must stay runnable."""
        import repro

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0


@functools.lru_cache(maxsize=None)
def _example_run(name: str) -> subprocess.CompletedProcess:
    """Run one example script once per test run; later calls reuse it."""
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=240,
    )


class TestExamplesRun:
    """Smoke-run every example end to end; a few also check their output."""

    def _run(self, name: str) -> str:
        result = _example_run(name)
        assert result.returncode == 0, result.stderr[-2000:]
        return result.stdout

    @pytest.mark.parametrize(
        "name", [path.name for path in sorted(EXAMPLES.glob("*.py"))]
    )
    def test_runs(self, name):
        self._run(name)

    def test_power_budget_explorer(self):
        out = self._run("power_budget_explorer.py")
        assert "2.50x" in out
        assert "11.00x" in out
        assert "amplifier" in out

    def test_quickstart(self):
        out = self._run("quickstart.py")
        assert "SNR" in out
        assert "codebook" in out

    def test_codebook_designer(self):
        out = self._run("codebook_designer.py")
        assert "lossless" in out
        assert "True" in out
