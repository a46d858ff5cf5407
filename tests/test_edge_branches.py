"""Edge-case and rarely-hit-branch tests across modules."""

import numpy as np
import pytest

from benchmarks.baselines import ArithmeticCodec, ArithmeticModel
from repro.experiments.fig5_fig6_table1 import run_lowres_tradeoff
from repro.experiments.runner import ExperimentScale
from repro.power.comparison import OperatingPoint, power_gain
from repro.power.rmpi_power import RmpiArchitecture
from repro.sensing.quantizers import requantize_codes
from repro.signals.database import load_record


class TestPowerComparisonBranches:
    def test_power_gain_with_custom_base(self):
        base = RmpiArchitecture(m=240, n=512, nef=3.0, gain_db=46.0)
        gain = power_gain(240, 96, base=base)
        # Gain is a channel-count ratio regardless of analog constants.
        assert gain == pytest.approx(2.5, rel=0.01)

    def test_operating_point_gain_method(self):
        point = OperatingPoint(
            target_snr_db=20.0, m_normal=240, m_hybrid=96, paper_gain=2.5
        )
        assert point.gain() == pytest.approx(2.5, rel=0.02)


class TestTradeoffCustomCodebooks:
    def test_explicit_codebooks_used(self):
        from repro.coding.codebook import train_codebook

        record = load_record("100", duration_s=10.0)
        streams = [requantize_codes(record.adu, 11, 6)]
        book = train_codebook(streams, 6)
        scale = ExperimentScale(
            record_names=("100",), duration_s=10.0, max_windows=None
        )
        data = run_lowres_tradeoff(
            resolutions=(6,), scale=scale, codebooks={6: book}
        )
        assert data.row(6).codebook_entries == book.n_entries


class TestDecoderErrorPaths:
    def test_huffman_garbage_raises(self, codebook_7bit):
        # An empty payload cannot hold even the first sample: the decoder
        # must raise EOFError rather than loop or return garbage.
        with pytest.raises(EOFError):
            codebook_7bit.decode_window(b"", 16, 0)

    def test_huffman_decode_wrong_count(self, codebook_7bit):
        codes = np.array([60, 61, 61, 60], dtype=np.int64)
        payload, bits = codebook_7bit.encode_window(codes)
        with pytest.raises(EOFError):
            codebook_7bit.decode_window(payload, 20 * codes.size, bits)

    def test_arithmetic_model_precision_guard(self):
        # A model whose total exceeds the coder precision is rejected.
        model = ArithmeticModel(
            symbols=("a",), cumulative=(0, 1 << 30)
        )
        with pytest.raises(ValueError):
            ArithmeticCodec(model)


class TestRecordEdges:
    def test_concatenate_empty_rejected(self):
        from repro.signals.records import concatenate_records

        with pytest.raises(ValueError):
            concatenate_records("x", [])

    def test_windows_zero_len_rejected(self):
        record = load_record("100", duration_s=2.0)
        with pytest.raises(ValueError):
            list(record.windows(0))

    def test_mean_hr_needs_two_beats(self):
        from repro.signals.records import Record

        rec = Record(
            name="x",
            adu=np.full(720, 1024, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            rec.mean_heart_rate_bpm()


class TestCliErrorPaths:
    def test_missing_wfdb_file(self, capsys):
        from repro.cli import main

        rc = main(["compress", "--wfdb", "/nonexistent/path.hea"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_tradeoff_bad_record(self, capsys):
        from repro.cli import main

        rc = main(["tradeoff", "--records", "nope", "--duration", "2"])
        assert rc == 2


class TestFig7Helpers:
    def test_snr_at_unknown_cr_raises(self):
        from repro.experiments.fig7 import Fig7Series

        series = Fig7Series(
            method="hybrid",
            cr_percent=(50.0,),
            snr_db=(20.0,),
            prd_percent=(10.0,),
            net_cr_percent=(40.0,),
        )
        assert series.snr_at(50.0) == 20.0
        with pytest.raises(ValueError):
            series.snr_at(60.0)

    def test_highest_good_cr_none(self):
        from repro.experiments.fig7 import Fig7Series

        series = Fig7Series(
            method="normal",
            cr_percent=(50.0, 97.0),
            snr_db=(5.0, 0.0),
            prd_percent=(60.0, 100.0),
            net_cr_percent=(50.0, 97.0),
        )
        assert series.highest_good_cr() is None
