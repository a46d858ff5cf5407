"""CLI smoke tests for `repro loadtest`."""

import json

from repro.cli import main


LOADTEST_FAST = [
    "loadtest",
    "--patients", "4",
    "--duration", "1.5",
    "--window", "128",
    "--measurements", "48",
    "--max-iter", "200",
    "--chunk", "97",
]


class TestLoadtestCommand:
    def test_single_process_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "BENCH_gateway.json"
        code = main(LOADTEST_FAST + ["--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "repro-bench-gateway/v1"
        assert data["windows_completed"] > 0
        assert data["frames_lost"] == 0
        assert data["mode"]["shards"] == 1
        text = capsys.readouterr().out
        assert "loadtest: 4 patients" in text
        assert "wrote" in text

    def test_sharded_with_identity_check(self, tmp_path, capsys):
        out = tmp_path / "BENCH_gateway.json"
        code = main(
            LOADTEST_FAST
            + [
                "--shards", "2",
                "--compare-single",
                "--output", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["identical_to_single"] is True
        assert data["per_shard"]
        assert (
            data["recovered_digest"]
            == data["baseline_single"]["recovered_digest"]
        )
        # Three alternating runs a side; the first of each keeps the
        # single-run keys.
        runs = data["frames_per_sec_runs"]
        base_runs = data["baseline_single"]["frames_per_sec_runs"]
        assert len(runs) == len(base_runs) == 3
        assert runs[0] == data["frames_per_sec"]
        assert base_runs[0] == data["baseline_single"]["frames_per_sec"]
        assert "identity vs single-process: True" in capsys.readouterr().out

    def test_lossy_phase_reports_concealment_and_rolling_prd(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_gateway.json"
        code = main(
            LOADTEST_FAST
            + ["--duration", "3", "--phases", "lossy", "--output", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["scenario"]["phases"][0]["erasure_rate"] == 0.1
        assert data["frames_erased"] > 0
        assert data["concealed"] > 0
        prds = data["rolling_prd_pct"]
        assert sorted(prds) == ["p0000", "p0001", "p0002", "p0003"]
        assert all(0.0 < prd < 100.0 for prd in prds.values())
        text = capsys.readouterr().out
        assert "[lossy]" in text
        assert "rolling PRD: mean" in text

    def test_policy_flag_is_echoed(self, tmp_path):
        out = tmp_path / "BENCH_gateway.json"
        code = main(
            LOADTEST_FAST
            + [
                "--phases", "lossy",
                "--policy", "drop-newest",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["scenario"]["shed_policy"] == (
            "drop-newest"
        )

    def test_invalid_patients_errors_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "loadtest",
                "--patients", "0",
                "--phases", "lossy",
                "--output", str(tmp_path / "unused.json"),
            ]
        )
        assert code != 0
        assert "error: patients must be >= 1" in capsys.readouterr().err
