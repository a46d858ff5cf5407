"""Tests of the transmit-side batch engine and its exactness contract.

The batch path must be byte-identical to the scalar per-window path for
both front-end variants at every CR (docs/encoding.md).
"""

import numpy as np
import pytest

from repro.core.config import FrontEndConfig
from repro.core.encode_batch import measure_window_stack
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.core.pipeline import default_codebook

CR_GRID = (50.0, 75.0, 88.0)


def _frontend(config, method):
    if method == "hybrid":
        book = default_codebook(config.lowres_bits, config.acquisition_bits)
        return HybridFrontEnd(config, book)
    return NormalCsFrontEnd(config)


def _packet_bytes(packets):
    return b"".join(p.to_bytes() for p in packets)


class TestMeasureWindowStack:
    def test_rows_equal_scalar_measurement(self, record_100):
        config = FrontEndConfig()
        frontend = NormalCsFrontEnd(config)
        loop = frontend.process_record_loop(record_100, max_windows=6)
        batch = frontend.process_record(record_100, max_windows=6)
        for a, b in zip(loop, batch):
            assert np.array_equal(a.measurement_codes, b.measurement_codes)

    def test_extreme_guard_still_identical(self, record_100):
        """guard→0.5 recomputes every row; codes must not change."""
        config = FrontEndConfig()
        cs = NormalCsFrontEnd(config)._cs
        n = config.window_len
        windows = record_100.adu[: 4 * n].reshape(4, n)
        codes = measure_window_stack(
            cs.phi,
            cs.quantizer,
            windows.astype(float) - cs.center,
            boundary_guard=0.499,
        )
        for row, window in zip(codes, windows):
            assert np.array_equal(row, cs.measure(window))

    def test_rejects_non_stack(self):
        config = FrontEndConfig()
        frontend = NormalCsFrontEnd(config)
        with pytest.raises(ValueError):
            measure_window_stack(
                frontend.phi,
                frontend._cs.quantizer,
                np.zeros(config.window_len),
            )


class TestBatchedFrontEnds:
    @pytest.mark.parametrize("method", ["hybrid", "normal"])
    @pytest.mark.parametrize("cr", CR_GRID)
    def test_record_bytes_identical(self, record_100, method, cr):
        config = FrontEndConfig().for_cr(cr)
        frontend = _frontend(config, method)
        loop = frontend.process_record_loop(record_100, max_windows=8)
        batch = frontend.process_record(record_100, max_windows=8)
        assert len(batch) == len(loop)
        assert [p.window_index for p in batch] == [
            p.window_index for p in loop
        ]
        assert _packet_bytes(batch) == _packet_bytes(loop)

    def test_stream_matches_record(self, record_100):
        config = FrontEndConfig()
        frontend = _frontend(config, "hybrid")
        n = 5 * config.window_len
        # Uneven chunking exercises the framer buffer across pushes.
        chunks = np.array_split(record_100.adu[:n], 7)
        stream = frontend.process_stream(chunks)
        record = frontend.process_record(record_100, max_windows=5)
        assert _packet_bytes(stream) == _packet_bytes(record)

    def test_empty_stream(self):
        frontend = _frontend(FrontEndConfig(), "hybrid")
        assert frontend.process_stream([]) == []

    def test_explicit_indices(self, record_100):
        config = FrontEndConfig()
        frontend = _frontend(config, "hybrid")
        windows = np.stack(
            [w for w in record_100.windows(config.window_len)][:3]
        )
        packets = frontend.encode_windows(windows, indices=[7, 9, 11])
        assert [p.window_index for p in packets] == [7, 9, 11]
        shifted = frontend.encode_windows(windows, start_index=4)
        assert [p.window_index for p in shifted] == [4, 5, 6]

    def test_index_count_mismatch_rejected(self, record_100):
        config = FrontEndConfig()
        frontend = _frontend(config, "normal")
        windows = np.stack(
            [w for w in record_100.windows(config.window_len)][:2]
        )
        with pytest.raises(ValueError):
            frontend.encode_windows(windows, indices=[0])

    def test_stack_validation(self):
        config = FrontEndConfig()
        frontend = _frontend(config, "normal")
        with pytest.raises(ValueError):
            frontend.encode_windows(np.zeros(config.window_len, dtype=np.int64))
        bad = np.full((2, config.window_len), 1 << 12, dtype=np.int64)
        with pytest.raises(ValueError):
            frontend.encode_windows(bad)
