"""Tests of the transmit-side batch engine and its exactness contract.

The engine must be byte-identical to the per-window reference encoder
(GEMV measurement, per-token Huffman coding, ``tests/per_bit_oracles.py``)
for both front-end variants at every CR, and a window's bytes must not
depend on the stack it is encoded in (docs/encoding.md).
"""

import numpy as np
import pytest

from repro.core.config import FrontEndConfig
from repro.core.encode_batch import measure_window_stack
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.core.pipeline import default_codebook
from repro.stream.ingest import IngestSession
from tests.per_bit_oracles import measure, process_window

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
        batch = frontend.process_record(record_100, max_windows=6)
        for window, packet in zip(record_100.windows(config.window_len), batch):
            reference = measure(frontend, window)
            assert np.array_equal(packet.measurement_codes, reference)
            assert np.array_equal(frontend._cs.measure(window), reference)

    def test_extreme_guard_still_identical(self, record_100):
        """guard→0.5 recomputes every row; codes must not change."""
        config = FrontEndConfig()
        frontend = NormalCsFrontEnd(config)
        cs = frontend._cs
        n = config.window_len
        windows = record_100.adu[: 4 * n].reshape(4, n)
        codes = measure_window_stack(
            cs.phi,
            cs.quantizer,
            windows.astype(float) - cs.center,
            boundary_guard=0.499,
        )
        for row, window in zip(codes, windows):
            assert np.array_equal(row, measure(frontend, window))

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
        windows = list(record_100.windows(config.window_len))[:8]
        loop = [process_window(frontend, w, i) for i, w in enumerate(windows)]
        batch = frontend.process_record(record_100, max_windows=8)
        assert len(batch) == len(loop)
        assert [p.window_index for p in batch] == [
            p.window_index for p in loop
        ]
        assert _packet_bytes(batch) == _packet_bytes(loop)

    @pytest.mark.parametrize("method", ["hybrid", "normal"])
    @pytest.mark.parametrize("cr", CR_GRID)
    def test_bytes_do_not_depend_on_the_stack(self, record_100, method, cr):
        """Alone, in a stack of 8 and in a shuffled stack: same bytes."""
        config = FrontEndConfig().for_cr(cr)
        frontend = _frontend(config, method)
        windows = np.stack(list(record_100.windows(config.window_len))[:8])
        alone = [frontend.process_window(w, i) for i, w in enumerate(windows)]
        stacked = frontend.encode_windows(windows)
        order = np.random.default_rng(int(cr)).permutation(len(windows))
        shuffled = frontend.encode_windows(windows[order], indices=order)
        by_index = {p.window_index: p for p in shuffled}
        assert _packet_bytes(stacked) == _packet_bytes(alone)
        assert _packet_bytes(by_index[i] for i in range(8)) == _packet_bytes(alone)

    @pytest.mark.parametrize("method", ["hybrid", "normal"])
    def test_bad_windows_raise_like_reference(self, method):
        config = FrontEndConfig()
        frontend = _frontend(config, method)
        n = config.window_len
        for codes in (
            np.zeros(n - 1, dtype=np.int64),
            np.zeros((2, n), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(n),
            np.full(n, 1 << config.acquisition_bits, dtype=np.int64),
            np.full(n, -1, dtype=np.int64),
        ):
            with pytest.raises(ValueError) as reference:
                process_window(frontend, codes)
            with pytest.raises(ValueError, match="codes") as engine:
                frontend.process_window(codes)
            assert type(engine.value) is type(reference.value)

    def test_stream_matches_record(self, record_100):
        """The streaming encoder fed uneven chunks frames the record alike."""
        config = FrontEndConfig()
        frontend = _frontend(config, "hybrid")
        n = 5 * config.window_len
        session = IngestSession(record_100.name, config)
        stream = [
            frame.packet
            for chunk in np.array_split(record_100.adu[:n], 7)
            for frame in session.push(chunk)
        ]
        record = frontend.process_record(record_100, max_windows=5)
        assert _packet_bytes(stream) == _packet_bytes(record)

    def test_empty_stream(self):
        session = IngestSession("100", FrontEndConfig())
        assert session.push(np.zeros(0, dtype=np.int64)) == []

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
