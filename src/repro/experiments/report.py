"""Aggregate benchmark artifacts into a single reproduction report.

Every benchmark writes its table to ``benchmarks/results/<name>.txt``;
this module stitches those files into one Markdown document ordered like
the paper's evaluation, with a coverage checklist showing which artifacts
exist (i.e. which benches have been run) and which are still missing.

Used by ``repro-report`` style tooling and handy for regenerating the
baseline of EXPERIMENTS.md after a full-scale run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = [
    "EXPECTED_ARTIFACTS",
    "BENCH_GATEWAY_STEM",
    "ReportSection",
    "bench_gateway_section",
    "build_report",
    "write_report",
]

#: Stem of the optional gateway load-test artifact (`repro loadtest`).
BENCH_GATEWAY_STEM = "BENCH_gateway"

#: (artifact stem, section heading) in paper order.
EXPECTED_ARTIFACTS: Tuple[Tuple[str, str], ...] = (
    ("fig2_lowres_window", "Fig. 2 — low-resolution window & bound area"),
    ("fig4_difference_pdf", "Fig. 4 — difference PDFs"),
    ("fig5_codebook_storage", "Fig. 5 — codebook storage"),
    ("fig6_lowres_compression", "Fig. 6 — low-res channel compression"),
    ("table1_overhead", "Table I — low-res channel overhead"),
    ("fig7_snr_prd_vs_cr", "Fig. 7 — SNR/PRD vs CR"),
    ("fig8_boxplots", "Fig. 8 — per-record box statistics"),
    ("fig9_example_reconstructions", "Fig. 9 — example reconstructions"),
    ("fig11_power_breakdown", "Fig. 11 — power breakdown"),
    ("headline_power_gains", "Section VI — fixed-SNR power gains"),
    ("ablation_basis", "Ablation — sparsifying basis"),
    ("ablation_ensemble", "Ablation — measurement ensemble"),
    ("ablation_solver", "Ablation — recovery algorithm"),
    ("ablation_lowres_depth", "Ablation — low-res channel depth"),
    ("ablation_coding", "Ablation — run-length vs plain Huffman"),
    ("ablation_entropy_coder", "Ablation — Huffman vs arithmetic coding"),
    ("ablation_structured_recovery", "Ablation — recovery levers"),
    ("ablation_power_sensitivity", "Ablation — power-model sensitivity"),
    ("ablation_sigma_safety", "Ablation — fidelity-radius safety factor"),
    ("extension_diagnostic_quality", "Extension — QRS-detection fidelity"),
    ("extension_link_robustness", "Extension — lossy-link robustness"),
    ("extension_adaptive_allocation", "Extension — adaptive channel allocation"),
    ("extension_phase_transition", "Extension — L1 phase transition"),
)


@dataclass(frozen=True)
class ReportSection:
    """One artifact's contribution to the report."""

    stem: str
    heading: str
    present: bool
    body: str

    def to_markdown(self) -> str:
        lines = [f"## {self.heading}", ""]
        if self.present:
            lines += ["```", self.body.rstrip(), "```", ""]
        else:
            lines += [
                f"_missing — run `pytest benchmarks/ --benchmark-only` to "
                f"generate `{self.stem}.txt`_",
                "",
            ]
        return "\n".join(lines)


def bench_gateway_section(results_dir: Path) -> str:
    """Markdown for the gateway load-test artifact, or "" when absent.

    ``BENCH_gateway.json`` is the ``repro loadtest`` output (see
    ``docs/streaming.md``); informational, it does not count toward
    artifact coverage.
    """
    path = Path(results_dir) / f"{BENCH_GATEWAY_STEM}.json"
    if not path.exists():
        return ""
    try:
        data = json.loads(path.read_text())
    except ValueError:
        return ""
    scenario = data.get("scenario", {})
    mode = data.get("mode", {})
    shards = mode.get("shards", 1)
    runtime = (
        f"{shards} shards" if shards and shards > 1 else "single-process"
    )
    phase_names = "+".join(
        p.get("name", "?") for p in scenario.get("phases", [])
    )
    lines = [
        "## Gateway load test (`repro loadtest`)",
        "",
        f"- scenario: {scenario.get('patients')} patients x "
        f"{scenario.get('duration_s')} s [{phase_names}], "
        f"policy `{scenario.get('shed_policy')}`",
        f"- runtime: {runtime}, {mode.get('workers')} worker(s)",
    ]
    rate = data.get("frames_per_sec")
    lines.append(
        f"- completed: {data.get('windows_completed')} windows in "
        f"{data.get('wall_s', 0):.2f} s"
        + (f" ({rate:.1f} frames/s)" if rate is not None else "")
    )
    pcts = []
    for key, label in (
        ("latency_p50_s", "p50"),
        ("latency_p95_s", "p95"),
        ("latency_p99_s", "p99"),
    ):
        value = data.get(key)
        if value is not None:
            pcts.append(f"{label} {value * 1e3:.0f} ms")
    if pcts:
        lines.append(f"- frame latency (simulated clock): {' / '.join(pcts)}")
    lines.append(
        f"- loss handling: lost {data.get('frames_lost')} "
        f"(drops {data.get('queue_drops')}, rejects "
        f"{data.get('queue_rejects')}, shed {data.get('shed_frames')}), "
        f"concealed {data.get('concealed')}, "
        f"CS fallbacks {data.get('cs_fallbacks')}"
    )
    per_shard = data.get("per_shard")
    if per_shard:
        balance = ", ".join(
            f"`{name}` {stats.get('sessions')} sessions / "
            f"{stats.get('windows_completed')} windows"
            for name, stats in per_shard.items()
        )
        lines.append(f"- shard balance: {balance}")
    identical = data.get("identical_to_single")
    if identical is not None:
        baseline = data.get("baseline_single") or {}
        base_rate = baseline.get("frames_per_sec")
        lines.append(
            f"- identity vs single-process: {identical}"
            + (
                f" (baseline {base_rate:.1f} frames/s)"
                if base_rate is not None
                else ""
            )
        )
    lines.append("")
    return "\n".join(lines)


def build_report(results_dir: Path) -> Tuple[str, int, int]:
    """Render the Markdown report.

    Returns ``(markdown, present_count, expected_count)``.
    """
    results_dir = Path(results_dir)
    sections: List[ReportSection] = []
    for stem, heading in EXPECTED_ARTIFACTS:
        path = results_dir / f"{stem}.txt"
        if path.exists():
            sections.append(
                ReportSection(stem, heading, True, path.read_text())
            )
        else:
            sections.append(ReportSection(stem, heading, False, ""))

    present = sum(1 for s in sections if s.present)
    header = [
        "# Reproduction report",
        "",
        f"Artifacts present: {present}/{len(sections)} "
        f"(from `{results_dir}`)",
        "",
        "## Coverage checklist",
        "",
    ]
    for s in sections:
        mark = "x" if s.present else " "
        header.append(f"- [{mark}] {s.heading}")
    header.append("")

    body_parts = [s.to_markdown() for s in sections]
    gateway = bench_gateway_section(results_dir)
    if gateway:
        body_parts.append(gateway)
    return "\n".join(header) + "\n" + "\n".join(body_parts), present, len(sections)


def write_report(results_dir: Path, output: Optional[Path] = None) -> Path:
    """Write the report next to the results (default ``REPORT.md``)."""
    markdown, _, _ = build_report(results_dir)
    out = Path(output) if output else Path(results_dir) / "REPORT.md"
    out.write_text(markdown)
    return out
