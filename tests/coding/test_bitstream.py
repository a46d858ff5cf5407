"""Tests of the MSB-first bit writer/reader."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.bitstream import BitReader, BitWriter


class TestBitWriter:
    def test_docstring_example(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_uint(7, 5)
        assert w.bit_length == 8
        assert w.getvalue() == b"\xa7"

    def test_empty(self):
        w = BitWriter()
        assert w.bit_length == 0
        assert w.getvalue() == b""

    def test_padding_to_byte(self):
        w = BitWriter()
        w.write_bit(1)
        assert w.getvalue() == b"\x80"
        assert w.bit_length == 1

    def test_cross_byte_value(self):
        w = BitWriter()
        w.write_uint(0xABC, 12)
        assert w.getvalue() == b"\xab\xc0"

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(8, 3)

    def test_negative_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(-1, 4)

    def test_bad_bit_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bit(2)

    def test_zero_width_write_is_noop(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert w.bit_length == 0


class TestWriteBitsArray:
    """The bulk path must be indistinguishable from the scalar loop."""

    def _reference(self, values, lengths):
        w = BitWriter()
        for value, n_bits in zip(values, lengths):
            w.write_bits(int(value), int(n_bits))
        return w

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(0, 21, size=200)
        values = np.array(
            [int(rng.integers(0, 1 << n)) if n else 0 for n in lengths]
        )
        w = BitWriter()
        w.write_bits_array(values, lengths)
        ref = self._reference(values, lengths)
        assert w.getvalue() == ref.getvalue()
        assert w.bit_length == ref.bit_length

    def test_merges_with_partial_byte(self):
        """Bulk writes after bit-level writes continue the same stream."""
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits_array([0b11, 0x1F], [2, 5])
        ref = self._reference([0b101, 0b11, 0x1F], [3, 2, 5])
        assert w.getvalue() == ref.getvalue()
        assert w.bit_length == ref.bit_length

    def test_scalar_writes_after_bulk(self):
        w = BitWriter()
        w.write_bits_array([0x2A], [7])
        w.write_bits(1, 1)
        assert w.getvalue() == self._reference([0x2A, 1], [7, 1]).getvalue()

    def test_empty_and_zero_length_fields(self):
        w = BitWriter()
        w.write_bits_array([], [])
        w.write_bits_array([0, 0b11, 0], [0, 2, 0])
        assert w.bit_length == 2
        assert w.getvalue() == b"\xc0"

    def test_wide_fields_take_scalar_fallback(self):
        w = BitWriter()
        w.write_bits_array(np.array([0xABCDEF], dtype=np.uint64), [70])
        assert w.getvalue() == self._reference([0xABCDEF], [70]).getvalue()

    def test_64_bit_field_accepted(self):
        value = (1 << 64) - 1
        w = BitWriter()
        w.write_bits_array(np.array([value], dtype=np.uint64), [64])
        assert w.getvalue() == self._reference([value], [64]).getvalue()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits_array([1, 2], [1])

    def test_float_values_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits_array(np.array([1.5]), [2])

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits_array([1], [-1])

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits_array([-1], [4])

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits_array([8], [3])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**20 - 1), st.integers(0, 20)),
            min_size=0,
            max_size=40,
        )
    )
    def test_bulk_equals_loop_property(self, fields):
        values = [v % (1 << width) if width else 0 for v, width in fields]
        lengths = [width for _, width in fields]
        w = BitWriter()
        w.write_bits_array(values, lengths)
        ref = self._reference(values, lengths)
        assert w.getvalue() == ref.getvalue()
        assert w.bit_length == ref.bit_length


class TestBitReader:
    def test_reads_back_writer_output(self):
        w = BitWriter()
        w.write_uint(0b1101, 4)
        w.write_uint(0x3FF, 10)
        r = BitReader(w.getvalue(), w.bit_length)
        assert r.read_uint(4) == 0b1101
        assert r.read_uint(10) == 0x3FF
        assert r.bits_remaining == 0

    def test_eof_raises(self):
        r = BitReader(b"\xff", bit_length=3)
        r.read_bits(3)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00", bit_length=9)

    def test_default_limit_is_buffer(self):
        r = BitReader(b"\x00\x00")
        assert r.bits_remaining == 16

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**20 - 1), st.integers(1, 20)),
            min_size=1,
            max_size=30,
        )
    )
    def test_roundtrip_property(self, fields):
        """Any sequence of (value, width) fields round-trips bit-exactly."""
        w = BitWriter()
        clipped = [(v % (1 << width), width) for v, width in fields]
        for value, width in clipped:
            w.write_uint(value, width)
        r = BitReader(w.getvalue(), w.bit_length)
        for value, width in clipped:
            assert r.read_uint(width) == value
