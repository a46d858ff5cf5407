"""Tests of the benchmark-artifact report aggregator."""

from pathlib import Path

import pytest

from repro.experiments.report import (
    EXPECTED_ARTIFACTS,
    build_report,
    write_report,
)


@pytest.fixture
def results_dir(tmp_path):
    (tmp_path / "fig7_snr_prd_vs_cr.txt").write_text(
        "== Fig. 7 ==\nCR hybrid normal\n50 24 19\n"
    )
    (tmp_path / "table1_overhead.txt").write_text("== Table I ==\n...\n")
    return tmp_path


class TestBuildReport:
    def test_counts_present_artifacts(self, results_dir):
        markdown, present, expected = build_report(results_dir)
        assert present == 2
        assert expected == len(EXPECTED_ARTIFACTS)

    def test_present_sections_embed_tables(self, results_dir):
        markdown, _, _ = build_report(results_dir)
        assert "CR hybrid normal" in markdown
        assert "- [x] Fig. 7 — SNR/PRD vs CR" in markdown

    def test_missing_sections_flagged(self, results_dir):
        markdown, _, _ = build_report(results_dir)
        assert "- [ ] Fig. 11 — power breakdown" in markdown
        assert "missing — run `pytest benchmarks/" in markdown

    def test_empty_directory(self, tmp_path):
        markdown, present, _ = build_report(tmp_path)
        assert present == 0
        assert "Artifacts present: 0/" in markdown


class TestBenchGatewaySection:
    def test_absent_artifact_renders_nothing(self, results_dir):
        markdown, present, _ = build_report(results_dir)
        assert "Gateway load test" not in markdown
        assert present == 2

    def test_present_artifact_renders_without_counting(self, results_dir):
        import json

        (results_dir / "BENCH_gateway.json").write_text(json.dumps({
            "scenario": {"patients": 200, "duration_s": 1.0,
                         "shed_policy": "drop-oldest",
                         "phases": [{"name": "nominal"}]},
            "mode": {"shards": 2, "transport": "wire", "workers": 2},
            "wall_s": 4.0, "windows_completed": 400, "frames_per_sec": 100.0,
            "latency_p50_s": 0.01, "frames_lost": 0,
            "identical_to_single": True,
            "baseline_single": {"frames_per_sec": 95.0},
        }))
        markdown, present, _ = build_report(results_dir)
        assert present == 2  # informational, not a coverage artifact
        assert "## Gateway load test (`repro loadtest`)" in markdown
        assert "- runtime: 2 shards / wire transport, 2 worker(s)" in markdown
        assert "identity vs single-process: True (baseline 95.0 frames/s)" in markdown

    def test_corrupt_artifact_ignored(self, results_dir):
        (results_dir / "BENCH_gateway.json").write_text("{broken")
        markdown, _, _ = build_report(results_dir)
        assert "Gateway load test" not in markdown


class TestWriteReport:
    def test_default_location(self, results_dir):
        out = write_report(results_dir)
        assert out == results_dir / "REPORT.md"
        assert out.read_text().startswith("# Reproduction report")

    def test_custom_location(self, results_dir, tmp_path):
        target = tmp_path / "custom.md"
        out = write_report(results_dir, target)
        assert out == target
        assert target.exists()


class TestCliIntegration:
    def test_report_subcommand(self, results_dir, capsys):
        from repro.cli import main

        rc = main(["report", "--results", str(results_dir)])
        assert rc == 0
        assert (results_dir / "REPORT.md").exists()
        assert "artifacts present" in capsys.readouterr().out

    def test_strict_mode_fails_on_missing(self, results_dir):
        from repro.cli import main

        rc = main(["report", "--results", str(results_dir), "--strict"])
        assert rc == 1

    def test_full_results_pass_strict(self, tmp_path):
        from repro.cli import main

        for stem, _ in EXPECTED_ARTIFACTS:
            (tmp_path / f"{stem}.txt").write_text("== t ==\nrow\n")
        rc = main(["report", "--results", str(tmp_path), "--strict"])
        assert rc == 0
