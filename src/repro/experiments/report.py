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
    "BENCH_SWEEP_STEM",
    "BENCH_SOLVERS_STEM",
    "BENCH_ENCODE_STEM",
    "BENCH_GATEWAY_STEM",
    "BENCH_BSBL_STEM",
    "ReportSection",
    "bench_sweep_section",
    "bench_solvers_section",
    "bench_encode_section",
    "bench_gateway_section",
    "bench_bsbl_section",
    "build_report",
    "write_report",
]

#: Stem of the optional engine-throughput artifact (`make bench-smoke`).
BENCH_SWEEP_STEM = "BENCH_sweep"

#: Stem of the optional solver-microbenchmark artifact (`repro bench`).
BENCH_SOLVERS_STEM = "BENCH_solvers"

#: Stem of the optional encoder-microbenchmark artifact (`repro bench`).
BENCH_ENCODE_STEM = "BENCH_encode"

#: Stem of the optional gateway load-test artifact (`repro loadtest`).
BENCH_GATEWAY_STEM = "BENCH_gateway"

#: Stem of the optional Bayesian-family comparison (`repro bench`).
BENCH_BSBL_STEM = "BENCH_bsbl"

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


def bench_sweep_section(results_dir: Path) -> str:
    """Markdown for the engine-throughput artifact, or "" when absent.

    ``BENCH_sweep.json`` is informational (written by ``make bench-smoke``
    / ``repro bench``); it does not count toward artifact coverage.
    """
    path = Path(results_dir) / f"{BENCH_SWEEP_STEM}.json"
    if not path.exists():
        return ""
    try:
        data = json.loads(path.read_text())
    except ValueError:
        return ""
    lines = [
        "## Engine throughput (`repro bench`)",
        "",
        f"- workers: {data.get('workers')} (cpu_count "
        f"{data.get('cpu_count')})",
        f"- windows: {data.get('windows_total')} "
        f"@ {data.get('parallel', {}).get('windows_per_sec', 0):.1f}"
        " windows/s",
    ]
    speedup = data.get("speedup_windows_per_sec")
    if speedup is not None:
        lines.append(
            f"- speedup over serial: {speedup:.2f}x "
            f"(results identical: {data.get('results_equal_serial')})"
        )
    stream = data.get("stream")
    if stream:
        lines += ["", "### Streaming gateway (`repro stream`)", ""]
        rate = stream.get("frames_per_sec")
        lines.append(
            f"- sessions: {stream.get('sessions')} x "
            f"{stream.get('duration_s')} s @ "
            f"{stream.get('erasure_rate', 0) * 100:.0f}% erasure"
        )
        lines.append(
            f"- frames: {stream.get('frames_total')}"
            + (f" @ {rate:.1f} frames/s" if rate is not None else "")
        )
        p50, p95 = stream.get("latency_p50_s"), stream.get("latency_p95_s")
        if p50 is not None and p95 is not None:
            lines.append(
                f"- latency: p50 {p50 * 1e3:.0f} ms / p95 {p95 * 1e3:.0f} ms"
            )
        lines.append(
            f"- loss handling: concealed {stream.get('concealed')}, "
            f"CS fallbacks {stream.get('cs_fallbacks')}, "
            f"queue drops {stream.get('queue_drops')}"
        )
    lines.append("")
    return "\n".join(lines)


def bench_solvers_section(results_dir: Path) -> str:
    """Markdown for the solver-microbenchmark artifact, or "" when absent.

    ``BENCH_solvers.json`` compares the batched+cached recovery engine
    against the legacy per-window loop (see ``docs/recovery.md``); like
    the sweep artifact it is informational and does not count toward
    coverage.
    """
    path = Path(results_dir) / f"{BENCH_SOLVERS_STEM}.json"
    if not path.exists():
        return ""
    try:
        data = json.loads(path.read_text())
    except ValueError:
        return ""
    lines = [
        "## Solver engines (`repro bench`)",
        "",
        "| solver | CR % | loop w/s | batched w/s | speedup | max PRD dev % |",
        "|---|---|---|---|---|---|",
    ]
    for cell in data.get("cells", []):
        loop = cell.get("loop", {})
        batched = cell.get("batched", {})
        lines.append(
            f"| {cell.get('solver')} "
            f"| {cell.get('cr_percent', 0):.1f} "
            f"| {loop.get('windows_per_sec', 0):.1f} "
            f"| {batched.get('windows_per_sec', 0):.1f} "
            f"| {cell.get('speedup', 0):.2f}x "
            f"| {cell.get('max_prd_dev_percent', 0):.2e} |"
        )
    min_speedup = data.get("min_speedup")
    if min_speedup is not None:
        lines += [
            "",
            f"- minimum speedup (batched+cached over per-window loop): "
            f"{min_speedup:.2f}x",
        ]
    cache = data.get("problem_cache")
    if cache:
        lines.append(
            f"- operator cache: {cache.get('hits')} hits / "
            f"{cache.get('misses')} misses "
            f"(hit rate {cache.get('hit_rate', 0):.2f}, "
            f"{cache.get('size')} problems resident)"
        )
    lines.append("")
    return "\n".join(lines)


def bench_encode_section(results_dir: Path) -> str:
    """Markdown for the encoder-microbenchmark artifact, or "" when absent.

    ``BENCH_encode.json`` compares the batched encode engine and the
    vectorized synthesis kernels against their scalar reference loops
    (see ``docs/encoding.md``); informational, like the other bench
    artifacts.
    """
    path = Path(results_dir) / f"{BENCH_ENCODE_STEM}.json"
    if not path.exists():
        return ""
    try:
        data = json.loads(path.read_text())
    except ValueError:
        return ""
    lines = [
        "## Encode engine (`repro bench`)",
        "",
        "| method | CR % | loop w/s | batched w/s | speedup | bytes identical |",
        "|---|---|---|---|---|---|",
    ]
    for cell in data.get("cells", []):
        loop = cell.get("loop", {})
        batched = cell.get("batched", {})
        lines.append(
            f"| {cell.get('method')} "
            f"| {cell.get('cr_percent', 0):.1f} "
            f"| {loop.get('windows_per_sec', 0):.1f} "
            f"| {batched.get('windows_per_sec', 0):.1f} "
            f"| {cell.get('speedup', 0):.2f}x "
            f"| {cell.get('bytes_identical')} |"
        )
    min_speedup = data.get("min_encode_speedup")
    if min_speedup is not None:
        lines += [
            "",
            f"- minimum hybrid-encoder speedup (batched over per-window "
            f"loop): {min_speedup:.2f}x "
            f"(all bytes identical: {data.get('all_bytes_identical')})",
        ]
    synth = data.get("synth") or {}
    synth_cells = synth.get("cells", [])
    if synth_cells:
        lines += [
            "",
            "### Synthesis kernels",
            "",
            "| kernel | loop samples/s | vectorized samples/s | speedup | identical |",
            "|---|---|---|---|---|",
        ]
        for cell in synth_cells:
            loop = cell.get("loop", {})
            vec = cell.get("vectorized", {})
            lines.append(
                f"| {cell.get('kind')} "
                f"| {loop.get('samples_per_sec', 0):.0f} "
                f"| {vec.get('samples_per_sec', 0):.0f} "
                f"| {cell.get('speedup', 0):.1f}x "
                f"| {cell.get('identical')} |"
            )
    lines.append("")
    return "\n".join(lines)


def bench_gateway_section(results_dir: Path) -> str:
    """Markdown for the gateway load-test artifact, or "" when absent.

    ``BENCH_gateway.json`` is the ``repro loadtest`` output (see
    ``docs/streaming.md``); informational, like the other bench
    artifacts.
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
        f"{shards} shards / {mode.get('transport')} transport"
        if shards and shards > 1
        else "single-process"
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


def bench_bsbl_section(results_dir: Path) -> str:
    """Markdown for the Bayesian-family comparison, or "" when absent.

    ``BENCH_bsbl.json`` compares the BSBL recovery family (including
    Bayesian de-quantization) against the paper's hybrid Eq. 1 solve on
    an SNR-vs-CR grid (see ``docs/recovery.md``); informational, like
    the other bench artifacts.
    """
    path = Path(results_dir) / f"{BENCH_BSBL_STEM}.json"
    if not path.exists():
        return ""
    try:
        data = json.loads(path.read_text())
    except ValueError:
        return ""
    lines = [
        "## Bayesian recovery family (`repro bench`)",
        "",
        "| method | CR % | mean SNR dB | mean PRD % |",
        "|---|---|---|---|",
    ]
    for cell in data.get("cells", []):
        lines.append(
            f"| {cell.get('method')} "
            f"| {cell.get('cr_percent', 0):.1f} "
            f"| {cell.get('mean_snr_db', 0):.2f} "
            f"| {cell.get('mean_prd_percent', 0):.2f} |"
        )
    for row in data.get("comparison", []):
        verdict = "beats" if row.get("bayes_wins") else "trails"
        lines.append(
            f"- CR {row.get('cr_percent', 0):.0f}%: "
            f"`{row.get('best_bayes_method')}` {verdict} hybrid by "
            f"{row.get('bayes_gain_db', 0):+.2f} dB"
        )
    agreement = data.get("agreement") or {}
    max_dev = agreement.get("max_abs_alpha_dev")
    if max_dev is not None:
        lines.append(
            f"- batched EM vs scalar oracle: max |dalpha| {max_dev:.2e} "
            f"(tolerance {agreement.get('tolerance', 0):.0e}, within: "
            f"{agreement.get('within_tolerance')})"
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
    for bench in (
        bench_sweep_section(results_dir),
        bench_solvers_section(results_dir),
        bench_encode_section(results_dir),
        bench_gateway_section(results_dir),
        bench_bsbl_section(results_dir),
    ):
        if bench:
            body_parts.append(bench)
    return "\n".join(header) + "\n" + "\n".join(body_parts), present, len(sections)


def write_report(results_dir: Path, output: Optional[Path] = None) -> Path:
    """Write the report next to the results (default ``REPORT.md``)."""
    markdown, _, _ = build_report(results_dir)
    out = Path(output) if output else Path(results_dir) / "REPORT.md"
    out.write_text(markdown)
    return out
