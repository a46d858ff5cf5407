"""Differential tests: the vectorized batch coder vs the per-token encoder.

The contract under test is equality, not tolerance — every payload the
table-driven kernel produces must match the per-token reference
``encode_window`` of ``tests/per_bit_oracles.py`` byte for byte
(docs/encoding.md).
"""

import numpy as np
import pytest

from repro.coding.bitstream import BitWriter
from repro.coding.codebook import ESCAPE, train_codebook
from repro.coding.vectorized import encode_code_windows, pack_fields
from tests.per_bit_oracles import encode_window


def _train(bits=7, use_run_length=True, seed=0, length=4000):
    """A small codebook over a random-walk stream (zeros + escapes occur)."""
    rng = np.random.default_rng(seed)
    steps = np.where(
        rng.uniform(size=length) < 0.6,
        0,
        rng.integers(-3, 4, length),
    )
    half = 1 << (bits - 1)
    stream = np.clip(half + np.cumsum(steps), 0, (1 << bits) - 1)
    return train_codebook(
        [stream.astype(np.int64)], bits, use_run_length=use_run_length
    )


def _random_windows(rng, bits, w, k):
    return rng.integers(0, 1 << bits, size=(w, k), dtype=np.int64)


def _assert_matches_scalar(book, windows):
    batched = book.encode_windows(windows)
    for row, (payload, bit_length) in zip(windows, batched):
        ref_payload, ref_bits = encode_window(book, row)
        assert payload == ref_payload
        assert bit_length == ref_bits
        assert np.array_equal(
            book.decode_window(payload, row.size, bit_length), row
        )


class TestTables:
    def test_cached_on_codebook(self):
        book = _train()
        assert book.tables is book.tables

    def test_in_alphabet_entries_match_codec(self):
        book = _train()
        tables = book.tables
        offset = (1 << book.resolution_bits) - 1
        for d, (code, length) in book.codec.codes.items():
            if not isinstance(d, int):
                continue
            assert int(tables.diff_values[d + offset]) == code
            assert int(tables.diff_lengths[d + offset]) == length

    def test_out_of_alphabet_entries_fuse_escape(self):
        book = _train()
        tables = book.tables
        bits = book.resolution_bits
        offset = (1 << bits) - 1
        esc_code, esc_len = book.codec.codes[ESCAPE]
        payload_bits = book.escape_payload_bits
        missing = [
            d
            for d in range(-offset, offset + 1)
            if d not in book.codec.codes
        ]
        assert missing, "training stream should leave alphabet gaps"
        d = missing[0]
        expected = (esc_code << payload_bits) | (d + (1 << bits))
        assert int(tables.diff_values[d + offset]) == expected
        assert int(tables.diff_lengths[d + offset]) == esc_len + payload_bits

    def test_run_tables_zero_without_rle(self):
        book = _train(use_run_length=False)
        assert not book.tables.use_run_length
        assert not book.tables.run_lengths.any()


class TestByteEquality:
    @pytest.mark.parametrize("bits", [3, 7, 8])
    @pytest.mark.parametrize("use_run_length", [True, False])
    def test_random_stacks(self, bits, use_run_length):
        book = _train(bits=bits, use_run_length=use_run_length)
        rng = np.random.default_rng(bits * 10 + use_run_length)
        _assert_matches_scalar(book, _random_windows(rng, bits, 6, 97))

    def test_all_zero_windows(self):
        book = _train()
        windows = np.zeros((4, 300), dtype=np.int64)
        _assert_matches_scalar(book, windows)

    def test_runs_break_at_window_boundaries(self):
        """A zero run ending one window and starting the next must not fuse."""
        book = _train()
        windows = np.zeros((3, 64), dtype=np.int64)
        windows[:, 0] = 9  # non-trivial first sample, then 63 zero diffs
        _assert_matches_scalar(book, windows)

    def test_single_sample_windows(self):
        book = _train()
        windows = np.array([[5], [0], [127]], dtype=np.int64)
        _assert_matches_scalar(book, windows)

    def test_escape_heavy_windows(self):
        """Alternating extremes force the fused-escape LUT entries."""
        book = _train()
        row = np.tile([0, 127], 40).astype(np.int64)
        _assert_matches_scalar(book, np.vstack([row, row[::-1]]))

    def test_matches_real_record_windows(self, record_100):
        from repro.sensing.quantizers import requantize_codes

        codes = requantize_codes(record_100.adu, 11, 7)
        book = _train()
        usable = (codes.size // 512) * 512
        _assert_matches_scalar(book, codes[:usable].reshape(-1, 512)[:4])


class TestOneWindow:
    """``encode_window`` is a one-row engine call; it must still behave as
    the per-token encoder on every edge case."""

    def test_edge_cases_match_reference(self):
        book = _train()
        for codes in (
            np.array([5]),
            np.array([5, 9]),
            np.zeros(300, dtype=np.int64),
            np.tile([0, 127], 40),
            np.arange(128, dtype=np.int64),
        ):
            assert book.encode_window(codes) == encode_window(book, codes)

    def test_bad_windows_raise_like_reference(self):
        book = _train(bits=7)
        for codes in (
            np.zeros(0, dtype=np.int64),
            np.zeros((2, 4), dtype=np.int64),
            np.zeros(4),
            np.full(4, 128, dtype=np.int64),
            np.full(4, -1, dtype=np.int64),
        ):
            with pytest.raises((TypeError, ValueError)) as reference:
                encode_window(book, codes)
            with pytest.raises((TypeError, ValueError)) as engine:
                book.encode_window(codes)
            assert type(engine.value) is type(reference.value)


class TestValidation:
    def test_float_codes_rejected(self):
        book = _train()
        with pytest.raises(TypeError):
            book.encode_windows(np.zeros((2, 8)))

    def test_one_dimensional_rejected(self):
        book = _train()
        with pytest.raises(ValueError):
            book.encode_windows(np.zeros(8, dtype=np.int64))

    def test_empty_windows_rejected(self):
        book = _train()
        with pytest.raises(ValueError):
            book.encode_windows(np.zeros((2, 0), dtype=np.int64))

    def test_out_of_range_rejected(self):
        book = _train(bits=7)
        with pytest.raises(ValueError):
            book.encode_windows(np.full((1, 4), 128, dtype=np.int64))

    def test_kernel_rejects_bad_shapes(self):
        tables = _train().tables
        with pytest.raises(ValueError):
            encode_code_windows(tables, np.zeros(4, dtype=np.int64))


class TestPackFields:
    def test_matches_bitwriter(self, rng):
        lengths = rng.integers(1, 17, size=30).astype(np.int64)
        values = np.array(
            [int(rng.integers(0, 1 << int(n))) for n in lengths],
            dtype=np.uint64,
        )
        starts = np.array([0, 7, 11], dtype=np.int64)
        payloads, bits = pack_fields(values, lengths, starts)
        bounds = list(starts) + [lengths.size]
        for i, payload in enumerate(payloads):
            writer = BitWriter()
            for j in range(bounds[i], bounds[i + 1]):
                writer.write_bits(int(values[j]), int(lengths[j]))
            assert payload == writer.getvalue()
            assert int(bits[i]) == writer.bit_length
