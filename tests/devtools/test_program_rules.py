"""Fixture-backed positive/negative tests for the RL1xx program rules.

The fixture project under ``fixtures/program/proj`` is a two-layer
miniature of the real tree: ``proj.low`` owns state, ``proj.high``
consumes it, ``proj.contracts`` plays the role of
``repro.runtime.contracts``, ``proj.cyc_a``/``proj.cyc_b`` form the
one deliberate import cycle, and ``proj.reach`` is RL105's small
program: one root, three ways to be reached and one orphan.
"""

import shutil
from pathlib import Path

import pytest

from repro.devtools.reprolint import LayerConfig, REPRO_LAYERS, run_lint
from repro.devtools.reprolint.core import iter_python_files
from repro.devtools.reprolint.project import module_name_for

PROGRAM = Path(__file__).parent / "fixtures" / "program"
REPO = Path(__file__).parents[2]
SRC_REPRO = REPO / "src" / "repro"

#: The fixture project's declared layering: ``proj.low`` (plus the
#: contracts module and the package root) below ``proj.high`` (plus the
#: cycle pair, which sit in one layer so RL101 fires without RL100).
PROGRAM_LAYERS = LayerConfig(
    [
        ("low", ["proj.low", "proj.contracts", "proj"]),
        ("high", ["proj.high", "proj.cyc_a", "proj.cyc_b"]),
    ]
)


#: RL105's view of the fixture: only ``proj.reach`` is layered, and its
#: one entry point is ``proj.reach.main``.
REACH_LAYERS = LayerConfig(
    [("app", ["proj.reach"])], roots=["proj.reach.main"]
)


def program_findings(rule_id):
    run = run_lint(
        [PROGRAM],
        select=[rule_id],
        layers=PROGRAM_LAYERS,
    )
    assert all(f.rule_id == rule_id for f in run.findings)
    return run.findings


def by_file(findings):
    out = {}
    for f in findings:
        out.setdefault(Path(f.path).name, []).append(f)
    return out


class TestImportLayering:
    def test_rl100_flags_upward_imports_only(self):
        files = by_file(program_findings("RL100"))
        assert set(files) == {"bad_layer.py"}
        lines = sorted(f.line for f in files["bad_layer.py"])
        assert len(lines) == 2  # the from-import and the aliased import
        for f in files["bad_layer.py"]:
            assert "proj.high.app" in f.message
            assert "'low'" in f.message and "'high'" in f.message

    def test_rl100_clean_when_module_unassigned(self):
        bare = LayerConfig([("only", ["proj.high"])])
        run = run_lint([PROGRAM], select=["RL100"], layers=bare)
        # bad_layer.py matches no layer, so its imports are exempt.
        assert run.findings == []


class TestImportCycles:
    def test_rl101_reports_the_cycle_once(self):
        findings = program_findings("RL101")
        assert len(findings) == 1
        f = findings[0]
        assert Path(f.path).name == "cyc_a.py"
        assert "proj.cyc_a -> proj.cyc_b -> proj.cyc_a" in f.message

    def test_rl101_ignores_lazy_and_self_imports(self):
        # Everything else in the fixture tree (including the package
        # __init__ re-export idiom) must stay clean.
        files = by_file(program_findings("RL101"))
        assert set(files) == {"cyc_a.py"}


class TestExecutorPayloads:
    def test_rl102_flags_every_unpicklable_payload(self):
        files = by_file(program_findings("RL102"))
        assert set(files) == {"bad_payload.py"}
        details = [f.message for f in files["bad_payload.py"]]
        assert len(details) == 4
        joined = "\n".join(details)
        assert "lambda" in joined
        assert "locally-defined function 'helper'" in joined
        assert "instance of a locally-defined class 'worker'" in joined
        assert all("pickled" in d for d in details)

    def test_rl102_negative_module_level_callables(self):
        assert "good_payload.py" not in by_file(program_findings("RL102"))


class TestSharedState:
    def test_rl103_flags_cross_module_mutations(self):
        files = by_file(program_findings("RL103"))
        assert set(files) == {"bad_state.py"}
        messages = [f.message for f in files["bad_state.py"]]
        assert len(messages) == 4  # subscript, append, clear, del
        assert all("proj.low.state" in m for m in messages)
        assert any("proj.low.state.CACHE" in m for m in messages)
        assert any("proj.low.state.HISTORY" in m for m in messages)

    def test_rl103_negative_accessors_and_owner(self):
        files = by_file(program_findings("RL103"))
        # The owner's accessors and the accessor-using consumer are clean.
        assert "state.py" not in files
        assert "good_state.py" not in files

    def test_rl103_line_suppression_applies(self):
        assert "suppressed_state.py" not in by_file(
            program_findings("RL103")
        )


class TestContractDocs:
    def test_rl104_flags_undocumented_shape_contracts(self):
        files = by_file(program_findings("RL104"))
        assert set(files) == {"bad_contract.py"}
        messages = sorted(f.message for f in files["bad_contract.py"])
        assert len(messages) == 2
        assert any(
            "window_mean" in m and "no docstring" in m for m in messages
        )
        assert any(
            "window_energy" in m and "documents no shape" in m
            for m in messages
        )

    def test_rl104_negative_documented_private_or_uncalled(self):
        assert "good_contract.py" not in by_file(program_findings("RL104"))


class TestUnreachableModules:
    @staticmethod
    def reach_findings(*paths):
        run = run_lint(
            list(paths) or [PROGRAM], select=["RL105"], layers=REACH_LAYERS
        )
        return run.findings

    def test_rl105_flags_only_the_orphan(self):
        # Reached: helpers through the package re-export `main` imports,
        # plugins through the package's registration import, lazy
        # through a function-level import in `main`, and the package
        # because `main` lies inside it.  The orphan is only re-exported.
        findings = self.reach_findings()
        assert [Path(f.path).name for f in findings] == ["orphan.py"]
        f = findings[0]
        assert (f.line, f.col) == (1, 0)
        assert "proj.reach.orphan" in f.message

    def test_rl105_file_suppression_silences_the_orphan(self, tmp_path):
        shutil.copytree(PROGRAM / "proj", tmp_path / "proj")
        orphan = tmp_path / "proj" / "reach" / "orphan.py"
        orphan.write_text(
            orphan.read_text()
            + "\n# reprolint: disable-file=RL105 -- kept until it moves\n"
        )
        assert self.reach_findings(tmp_path) == []

    def test_rl105_judges_nothing_without_every_root(self):
        reach = PROGRAM / "proj" / "reach"
        assert self.reach_findings(reach / "orphan.py") == []
        assert self.reach_findings(reach / "__init__.py", reach / "orphan.py") == []

    def test_rl105_off_without_roots(self):
        assert program_findings("RL105") == []

    def test_roots_match_on_dotted_prefixes(self):
        assert REPRO_LAYERS.is_root("repro.stream.gateway")
        assert REPRO_LAYERS.is_root("repro.experiments.fig7")
        assert not REPRO_LAYERS.is_root("repro.experiments.cache")
        assert not REPRO_LAYERS.is_root("repro.streaming")
        assert REACH_LAYERS.missing_roots(["proj.reach.orphan"]) == [
            "proj.reach.main"
        ]


class TestLayerConfig:
    def test_longest_prefix_wins(self):
        assert PROGRAM_LAYERS.layer_of("proj.low.util") == 0
        assert PROGRAM_LAYERS.layer_of("proj.high.app") == 1
        assert PROGRAM_LAYERS.layer_of("proj") == 0
        assert PROGRAM_LAYERS.layer_of("proj.cyc_a") == 1
        assert PROGRAM_LAYERS.layer_of("unrelated.module") is None

    def test_duplicate_prefix_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            LayerConfig([("a", ["p.x"]), ("b", ["p.x"])])

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            LayerConfig([])


class TestRealTreeCoverage:
    """Meta-test: REPRO_LAYERS must name the real tree, package by package.

    A new top-level package cannot dodge RL100 by omission: it must be
    added to :data:`REPRO_LAYERS` (and thereby to a layer) explicitly,
    not swept up by the ``repro`` catch-all prefix.
    """

    def _top_level_modules(self):
        mods = []
        for entry in sorted(SRC_REPRO.iterdir()):
            if entry.is_dir() and (entry / "__init__.py").exists():
                mods.append(f"repro.{entry.name}")
            elif entry.suffix == ".py" and entry.name != "__init__.py":
                mods.append(f"repro.{entry.stem}")
        return mods

    def test_every_package_named_explicitly(self):
        prefixes = set(REPRO_LAYERS.prefixes)
        missing = [
            m for m in self._top_level_modules() if m not in prefixes
        ]
        assert missing == [], (
            f"add {missing} to REPRO_LAYERS in reprolint/graph.py: every "
            "package under src/repro must be assigned a layer explicitly"
        )

    def test_no_module_unassigned(self):
        assert REPRO_LAYERS.unassigned(
            self._top_level_modules() + ["repro"]
        ) == []


class TestRealTreeRoots:
    """Meta-test: REPRO_LAYERS declares every entry point as an RL105 root.

    An entry point left out of the roots would get the modules that only
    it reaches flagged as unreachable, and `make lint` must lint every
    root, or RL105 judges nothing.
    """

    def test_every_example_is_a_root(self):
        scripts = sorted(p.stem for p in (REPO / "examples").glob("*.py"))
        assert scripts
        assert [s for s in scripts if s not in REPRO_LAYERS.roots] == []

    def test_every_figure_driver_is_a_root(self):
        drivers = sorted(
            f"repro.experiments.{p.stem}"
            for p in (SRC_REPRO / "experiments").glob("fig*.py")
        )
        assert drivers
        assert [d for d in drivers if d not in REPRO_LAYERS.roots] == []

    def test_make_lint_sees_every_root(self):
        # `make lint`'s path set; with a root missing RL105 judges nothing.
        paths = [
            REPO / "src", REPO / "benchmarks" / "baselines.py", REPO / "examples"
        ]
        modules = [module_name_for(p) for p in iter_python_files(paths)]
        assert REPRO_LAYERS.missing_roots(modules) == []
