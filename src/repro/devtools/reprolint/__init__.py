"""``reprolint`` — domain-aware static analysis for the CS pipeline.

One serial run, two passes over the tree: per-file rules (RL001–RL007)
against a :class:`FileContext`, then the whole-program RL1xx family —
import layering, cycles, executor-payload picklability, shared-state
safety, contract/doc drift — against a :class:`ProjectModel` assembled
from per-file :class:`ModuleSummary` records.  A file that cannot be
read, decoded or parsed is one ``RL000`` finding, not an abort.
Reporters cover human text and versioned JSON.

Public surface: the rule framework (:class:`Rule`,
:class:`ProgramRule`, :func:`register`, :func:`get_rules`,
:func:`all_rule_ids`), the runner (:func:`run_lint`, :class:`LintRun`,
:func:`lint_source`, :func:`iter_python_files`), the project model
(:class:`ProjectModel`, :class:`ModuleSummary`, :class:`LayerConfig`,
:data:`REPRO_LAYERS`), the :class:`Finding` record, and the two
reporters.  Importing the package loads both built-in rule sets into
the registry.

Run it as ``repro lint <paths> [--strict] [--format json]`` or through
``make lint``.
"""

from __future__ import annotations

from repro.devtools.reprolint.core import (
    FileContext,
    Finding,
    Rule,
    all_rule_ids,
    get_rules,
    iter_python_files,
    read_source,
    register,
)
from repro.devtools.reprolint import rules as _builtin_rules  # noqa: F401
from repro.devtools.reprolint import rules_program as _program_rules  # noqa: F401
from repro.devtools.reprolint.graph import LayerConfig, REPRO_LAYERS
from repro.devtools.reprolint.project import ModuleSummary, ProjectModel
from repro.devtools.reprolint.rules_program import ProgramRule
from repro.devtools.reprolint.runner import LintRun, lint_source, run_lint
from repro.devtools.reprolint.reporters import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_text,
)

__all__ = [
    "FileContext",
    "Finding",
    "LayerConfig",
    "LintRun",
    "ModuleSummary",
    "ProgramRule",
    "ProjectModel",
    "REPRO_LAYERS",
    "Rule",
    "all_rule_ids",
    "get_rules",
    "iter_python_files",
    "lint_source",
    "read_source",
    "register",
    "render_json",
    "render_text",
    "run_lint",
    "JSON_SCHEMA_VERSION",
]
