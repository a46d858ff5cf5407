"""CLI smoke tests for `repro stream` and `repro loadtest`."""

import json

from repro.cli import main


class TestStreamCommand:
    def test_smoke_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "snap.json"
        code = main(
            [
                "stream",
                "--patients", "2",
                "--duration", "2",
                "--window", "128",
                "--measurements", "48",
                "--max-iter", "200",
                "--chunk", "97",
                "--erasure-rate", "0.2",
                "--output", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "repro-stream-snapshot/v1"
        assert data["sessions"] == 2
        assert data["windows_completed"] > 0
        assert len(data["per_session"]) == 2
        text = capsys.readouterr().out
        assert "streaming 2 patients" in text
        assert "rolling PRD by patient" in text

    def test_invalid_patients_errors_cleanly(self, capsys):
        code = main(["stream", "--patients", "0", "--duration", "2"])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_policy_flag_selects_shedding(self, tmp_path):
        out = tmp_path / "snap.json"
        code = main(
            [
                "stream",
                "--patients", "1",
                "--duration", "1",
                "--window", "128",
                "--measurements", "48",
                "--max-iter", "200",
                "--chunk", "97",
                "--erasure-rate", "0",
                "--policy", "drop-newest",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["shed_policy"] == "drop-newest"


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
        assert "identity vs single-process: True" in capsys.readouterr().out
