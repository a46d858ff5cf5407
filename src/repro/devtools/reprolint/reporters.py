"""Finding reporters: human text and machine JSON.

Both take the finding list produced by the runner and return a string.
Both are fully deterministic — findings are re-sorted by ``(path,
line, col, rule)`` and every mapping is emitted with sorted keys — so
CI diffs of committed reports are meaningful.

The JSON document is versioned so CI consumers can detect schema
changes.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Sequence

from repro.devtools.reprolint.core import Finding

__all__ = ["render_text", "render_json", "JSON_SCHEMA_VERSION"]

JSON_SCHEMA_VERSION = 1


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: ID message`` line per finding plus a summary."""
    findings = sorted(findings)
    if not findings:
        return "reprolint: no findings"
    lines = [f.format() for f in findings]
    files = len({f.path for f in findings})
    by_rule = Counter(f.rule_id for f in findings)
    breakdown = ", ".join(f"{rid}×{n}" for rid, n in sorted(by_rule.items()))
    lines.append(
        f"reprolint: {len(findings)} finding(s) in {files} file(s) [{breakdown}]"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """The findings as a stable, versioned JSON document.

    Deterministic by construction: findings sorted by ``(path, line,
    col, rule)``, ``by_rule`` keys sorted, and the serializer emits
    sorted keys — two runs over the same tree produce byte-identical
    documents (this stability is what CI diffs rely on).
    """
    findings = sorted(findings)
    by_rule: Dict[str, int] = dict(
        sorted(Counter(f.rule_id for f in findings).items())
    )
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "count": len(findings),
        "by_rule": by_rule,
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
