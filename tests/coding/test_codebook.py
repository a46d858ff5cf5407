"""Tests of the offline difference codebook (paper §III-B, Figs. 5-6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.codebook import ESCAPE, DifferenceCodebook, train_codebook
from repro.coding.huffman import HuffmanCodec
from repro.sensing.quantizers import requantize_codes
from tests.per_bit_oracles import decode_window as decode_window_per_bit


def _train(streams, bits=7, **kw):
    return train_codebook([np.asarray(s, dtype=np.int64) for s in streams], bits, **kw)


class TestTraining:
    def test_contains_escape_and_runs(self):
        book = _train([[10, 10, 11, 11, 12]])
        assert ESCAPE in book.codec.codes
        assert 0 in book.codec.codes

    def test_resolution_recorded(self):
        book = _train([[0, 1, 2]], bits=5)
        assert book.resolution_bits == 5

    def test_coverage_trims_alphabet(self):
        rng = np.random.default_rng(0)
        # Mostly small diffs, occasionally huge ones.
        steps = np.where(rng.uniform(size=5000) < 0.99,
                         rng.integers(-1, 2, 5000),
                         rng.integers(-60, 60, 5000))
        stream = np.clip(64 + np.cumsum(steps), 0, 127).astype(np.int64)
        full = _train([stream], coverage=1.0)
        trimmed = _train([stream], coverage=0.99)
        assert trimmed.n_entries < full.n_entries

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_codebook([np.array([5], dtype=np.int64)], 7)

    def test_bad_coverage_rejected(self):
        with pytest.raises(ValueError):
            _train([[0, 1]], coverage=0.0)


class TestEncodeDecode:
    def test_roundtrip_on_training_data(self, record_100):
        codes = requantize_codes(record_100.adu, 11, 7)
        book = _train([codes])
        window = codes[:512]
        payload, bits = book.encode_window(window)
        assert np.array_equal(book.decode_window(payload, 512, bits), window)

    def test_roundtrip_with_escapes(self):
        """Symbols unseen in training must survive via the escape path."""
        book = _train([[64, 64, 65, 65, 64]])
        wild = np.array([0, 100, 3, 90, 90, 90, 2], dtype=np.int64)
        payload, bits = book.encode_window(wild)
        assert np.array_equal(book.decode_window(payload, wild.size, bits), wild)

    def test_compression_beats_raw_on_redundant_stream(self):
        stream = np.repeat(np.arange(8, dtype=np.int64) + 60, 64)
        book = _train([stream])
        assert book.compressed_fraction(stream) < 0.2

    def test_out_of_range_codes_rejected(self):
        book = _train([[0, 1, 2]], bits=4)
        with pytest.raises(ValueError):
            book.encode_window(np.array([16], dtype=np.int64))

    def test_single_sample_window(self):
        book = _train([[3, 3, 4]])
        payload, bits = book.encode_window(np.array([5], dtype=np.int64))
        assert bits == book.resolution_bits
        assert np.array_equal(book.decode_window(payload, 1, bits), [5])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 127), min_size=1, max_size=400))
    def test_roundtrip_property(self, values):
        """Lossless on arbitrary 7-bit streams, even fully untrained."""
        book = _train([[60, 60, 61, 61, 62, 62]])
        window = np.asarray(values, dtype=np.int64)
        payload, bits = book.encode_window(window)
        assert np.array_equal(
            book.decode_window(payload, window.size, bits), window
        )


def _decode_outcome(decode, *args):
    try:
        return "ok", decode(*args).tolist()
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return "raised", type(exc)


class TestTableDecodeOracle:
    """The table-driven decode against the per-bit decode it replaced."""

    @pytest.fixture(scope="class")
    def books(self, codebook_7bit, record_100):
        codes = requantize_codes(record_100.adu, 11, 7)
        incomplete = HuffmanCodec.from_lengths({ESCAPE: 2, 0: 2, 1: 3, -1: 4})
        return {
            "trained": (codebook_7bit, 7),
            "plain": (train_codebook([codes], 7, use_run_length=False), 7),
            "escape-heavy": (_train([[64, 64, 65, 65, 64]]), 7),
            # Kraft sum 5/8: some peeks start no codeword at all.
            "incomplete": (
                DifferenceCodebook(3, incomplete, use_run_length=False), 3
            ),
        }

    def _windows(self, record_100, bits, rng):
        codes = requantize_codes(record_100.adu, 11, bits)
        windows = [codes[i * 512 : (i + 1) * 512] for i in range(4)]
        windows.append(rng.integers(0, 1 << bits, size=300))
        windows.append(np.full(700, 1, dtype=np.int64))
        windows.append(np.array([2], dtype=np.int64))
        return windows

    def _check(self, book, payload, n, bit_length):
        new = _decode_outcome(book.decode_window, payload, n, bit_length)
        assert new == _decode_outcome(
            decode_window_per_bit, book, payload, n, bit_length
        )
        return new[0] if new[0] == "ok" else new[1]

    @pytest.mark.parametrize(
        "name", ["trained", "plain", "escape-heavy", "incomplete"]
    )
    def test_clean_flipped_and_truncated_payloads(self, books, record_100, name):
        book, bits = books[name]
        rng = np.random.default_rng(len(name))
        seen = set()
        for window in self._windows(record_100, bits, rng):
            payload, length = book.encode_window(window)
            n = window.size
            assert self._check(book, payload, n, length) == "ok"
            seen.add(self._check(book, payload, n, None))
            for cut in sorted(set(rng.integers(0, length + 1, size=8).tolist())):
                seen.add(self._check(book, payload, n, cut))
            for wrong_n in (max(1, n - 5), n + 5, n + 300):
                seen.add(self._check(book, payload, wrong_n, length))
            for _ in range(40):
                flipped = bytearray(payload)
                for pos in rng.integers(0, length, size=rng.integers(1, 4)):
                    flipped[pos // 8] ^= 1 << (7 - pos % 8)
                seen.add(self._check(book, bytes(flipped), n, length))
        # Every outcome is exercised; a complete code without run tokens
        # cannot desynchronise into ValueError, only run out of bits.
        assert seen == {"ok", EOFError} | ({ValueError} if name != "plain" else set())

    def test_random_bytes_decode_alike(self, books):
        rng = np.random.default_rng(7)
        for book, _ in books.values():
            for _ in range(200):
                payload = bytes(
                    rng.integers(0, 256, size=rng.integers(0, 40)).astype(np.uint8)
                )
                self._check(book, payload, int(rng.integers(1, 200)), None)

    def test_bad_arguments_raise_alike(self, books):
        book, _ = books["trained"]
        payload, length = book.encode_window(np.arange(20, dtype=np.int64))
        for n, bit_length in [(0, length), (20, len(payload) * 8 + 1), (20, -1)]:
            self._check(book, payload, n, bit_length)


class TestRunLengthMode:
    def test_rle_beats_plain_on_zero_heavy_streams(self, record_100):
        codes = requantize_codes(record_100.adu, 11, 4)
        rle = train_codebook([codes], 4, use_run_length=True)
        plain = train_codebook([codes], 4, use_run_length=False)
        window = codes[:1024]
        assert rle.compressed_fraction(window) < plain.compressed_fraction(window)

    def test_plain_mode_roundtrip(self, record_100):
        codes = requantize_codes(record_100.adu, 11, 7)
        book = train_codebook([codes], 7, use_run_length=False)
        window = codes[:512]
        payload, bits = book.encode_window(window)
        assert np.array_equal(book.decode_window(payload, 512, bits), window)

    def test_sub_bit_per_sample_possible(self):
        """The paper's Table I regime: a constant stream codes below
        1 bit/sample with run tokens (impossible for plain Huffman)."""
        stream = np.full(4096, 9, dtype=np.int64)
        book = train_codebook([stream], 7, use_run_length=True)
        assert book.compressed_fraction(stream) * 7 < 0.2


class TestStorageModel:
    def test_entry_size_scales_with_resolution(self):
        lo = _train([[1, 1, 2, 2, 3]], bits=4)
        hi = _train([[1, 1, 2, 2, 3]], bits=10)
        # Same alphabet; wider symbols may need more bytes per entry.
        assert hi.storage_bytes() >= lo.storage_bytes()

    def test_storage_counts_all_entries(self):
        book = _train([[5, 5, 6, 6, 7, 7]])
        assert book.storage_bytes() % book.n_entries == 0

    def test_validation_requires_run_tokens(self):
        from repro.coding.huffman import HuffmanCodec

        codec = HuffmanCodec.from_frequencies({0: 1.0, ESCAPE: 1.0})
        with pytest.raises(ValueError):
            DifferenceCodebook(resolution_bits=7, codec=codec, use_run_length=True)

    def test_validation_requires_escape(self):
        from repro.coding.huffman import HuffmanCodec

        codec = HuffmanCodec.from_frequencies({0: 1.0, 1: 1.0})
        with pytest.raises(ValueError):
            DifferenceCodebook(resolution_bits=7, codec=codec, use_run_length=False)
