"""The two-pass lint runner.

Pass 1 reads every file once, runs the file-scope rules over its
:class:`~repro.devtools.reprolint.core.FileContext` and extracts its
:class:`~repro.devtools.reprolint.project.ModuleSummary`.  A file that
cannot be read, decoded or parsed becomes one ``RL000`` finding and
the run goes on.  Pass 2 assembles the summaries into a
:class:`~repro.devtools.reprolint.project.ProjectModel` and runs the
RL1xx program rules over it.  Both passes run serially, and the
findings come back sorted, so the output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.devtools.reprolint.core import (
    FileContext,
    Finding,
    Rule,
    decode_failure_finding,
    get_rules,
    iter_python_files,
    read_source,
)
from repro.devtools.reprolint.project import (
    ModuleSummary,
    ProjectModel,
    summarize_module,
)

__all__ = ["LintRun", "lint_source", "run_lint"]


@dataclass
class LintRun:
    """Everything one lint invocation produced.

    Attributes
    ----------
    findings:
        Sorted by ``(path, line, col, rule)`` — the deterministic order
        every reporter preserves.
    files:
        How many files were examined.
    """

    findings: List[Finding] = field(default_factory=list)
    files: int = 0

    def summary_line(self) -> str:
        """One status line for the CLI (stderr, not part of the report)."""
        return (
            f"reprolint: {self.files} file(s), "
            f"{len(self.findings)} finding(s)"
        )


def _analyze_source(
    source: str, path: Path, rules: Sequence[Rule]
) -> Tuple[List[Finding], Optional[ModuleSummary]]:
    """Pass 1 for one module: its file-scope findings and its summary.

    A file that does not parse yields one ``RL000`` finding and no
    summary.
    """
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        finding = Finding(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id="RL000",
            message=f"file does not parse: {exc.msg}",
        )
        return [finding], None
    findings = sorted(
        f
        for rule in rules
        if rule.scope == "file"
        for f in rule.check(ctx)
        if not ctx.is_suppressed(f)
    )
    return findings, summarize_module(ctx)


def lint_source(
    source: str, path: Path, rules: Sequence[Rule]
) -> List[Finding]:
    """Run the file-scope ``rules`` over one module's text.

    Suppression comments are honored; program-scope rules in ``rules``
    are skipped (they need a whole project, see :func:`run_lint`).
    """
    return _analyze_source(source, Path(path), rules)[0]


def run_lint(
    paths: Iterable[Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    *,
    layers=None,
) -> LintRun:
    """Run both passes over every Python file under ``paths``.

    Parameters
    ----------
    select / ignore:
        Rule-id filters, exactly as :func:`get_rules` takes them.
    layers:
        Layer-config override for RL100 (fixture projects in tests).
    """
    rules = get_rules(select=select, ignore=ignore)
    files = list(dict.fromkeys(iter_python_files(paths)))

    findings: List[Finding] = []
    summaries: List[ModuleSummary] = []
    for path in files:
        try:
            source = read_source(path)
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(decode_failure_finding(path, exc))
            continue
        file_findings, summary = _analyze_source(source, path, rules)
        findings.extend(file_findings)
        if summary is not None:
            summaries.append(summary)

    project = ProjectModel(summaries, layers=layers)
    by_path: Dict[str, ModuleSummary] = {s.path: s for s in summaries}
    for rule in rules:
        if rule.scope != "program":
            continue
        for finding in rule.check_program(project):
            owner = by_path.get(finding.path)
            if owner is None or not owner.is_suppressed(
                finding.rule_id, finding.line
            ):
                findings.append(finding)

    return LintRun(findings=sorted(findings), files=len(files))
