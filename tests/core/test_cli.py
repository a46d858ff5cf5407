"""Tests of the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["compress"])
        assert args.method == "hybrid"
        assert args.measurements == 96
        assert args.window == 512

    def test_power_args(self):
        args = build_parser().parse_args(
            ["power", "--m-normal", "176", "--m-hybrid", "16"]
        )
        assert args.m_normal == 176
        assert args.m_hybrid == 16


class TestSynthesize:
    def test_writes_wfdb_pairs(self, tmp_path, capsys):
        rc = main(
            [
                "synthesize",
                "--output", str(tmp_path),
                "--records", "100", "101",
                "--duration", "2",
            ]
        )
        assert rc == 0
        assert (tmp_path / "100.hea").exists()
        assert (tmp_path / "100.dat").exists()
        assert (tmp_path / "101.hea").exists()

    def test_written_files_load_back(self, tmp_path):
        from repro.signals.database import load_record
        from repro.signals.wfdb_io import read_record

        main(["synthesize", "-o", str(tmp_path), "--records", "103",
              "--duration", "2"])
        loaded = read_record(tmp_path / "103.hea")
        reference = load_record("103", duration_s=2.0)
        assert np.array_equal(loaded.adu, reference.adu)


class TestCompress:
    def test_hybrid_run(self, capsys):
        rc = main(
            [
                "compress", "--record", "100", "--duration", "5",
                "--window", "128", "-m", "48",
                "--max-windows", "1", "--max-iter", "400",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SNR" in out and "mean:" in out

    def test_normal_run(self, capsys):
        rc = main(
            [
                "compress", "--method", "normal", "--duration", "5",
                "--window", "128", "-m", "48",
                "--max-windows", "1", "--max-iter", "400",
            ]
        )
        assert rc == 0

    def test_wfdb_input(self, tmp_path, capsys):
        main(["synthesize", "-o", str(tmp_path), "--records", "100",
              "--duration", "5"])
        rc = main(
            [
                "compress", "--wfdb", str(tmp_path / "100.hea"),
                "--window", "128", "-m", "48",
                "--max-windows", "1", "--max-iter", "400",
            ]
        )
        assert rc == 0

    def test_bad_record_reports_error(self, capsys):
        rc = main(["compress", "--record", "999", "--duration", "5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestTradeoffAndPower:
    def test_tradeoff_table(self, capsys):
        rc = main(
            [
                "tradeoff", "--min-bits", "6", "--max-bits", "7",
                "--duration", "5", "--records", "100",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "overhead" in out

    def test_power_table(self, capsys):
        rc = main(["power"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2.50x" in out

    def test_power_custom_point(self, capsys):
        rc = main(["power", "--m-normal", "176", "--m-hybrid", "16"])
        assert rc == 0
        assert "11.0" in capsys.readouterr().out


class TestTwoLeadSynthesize:
    def test_writes_two_signal_record(self, tmp_path):
        import numpy as np

        from repro.cli import main
        from repro.signals.database import load_record_pair
        from repro.signals.wfdb_io import read_record

        rc = main(
            [
                "synthesize", "-o", str(tmp_path), "--records", "100",
                "--duration", "2", "--two-lead",
            ]
        )
        assert rc == 0
        mlii, v5 = load_record_pair("100", duration_s=2.0)
        assert np.array_equal(
            read_record(tmp_path / "100.hea", channel=0).adu, mlii.adu
        )
        assert np.array_equal(
            read_record(tmp_path / "100.hea", channel=1).adu, v5.adu
        )


class TestBench:
    """``perfbench/`` is the benchmark, so the CLI has no ``bench``."""

    def test_compress_workers_flag(self):
        args = build_parser().parse_args(["compress", "--workers", "4"])
        assert args.workers == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile"],
            ["compress", "--backend", "numpy"],
            ["bench", "--precision", "float32"],
            ["bench"],
        ],
    )
    def test_no_backend_or_profile_surface(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "power"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "2.50x" in result.stdout
