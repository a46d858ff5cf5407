"""Property suite: batched encode == per-token encode, and both round-trip.

Arbitrary B-bit code windows (including odd tails and degenerate
single-sample windows) go through the batch engine; the decoder must
recover them and the per-token reference encoder
(``tests/per_bit_oracles.py``) must produce the same bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.codebook import train_codebook
from tests.per_bit_oracles import encode_window

pytestmark = pytest.mark.property

_BOOKS = {}


def _book(bits, use_run_length):
    """Codebooks are deterministic; build each once for the whole suite."""
    key = (bits, use_run_length)
    if key not in _BOOKS:
        rng = np.random.default_rng(17 + bits)
        steps = np.where(
            rng.uniform(size=3000) < 0.55,
            0,
            rng.integers(-2, 3, 3000),
        )
        half = 1 << (bits - 1)
        stream = np.clip(half + np.cumsum(steps), 0, (1 << bits) - 1)
        _BOOKS[key] = train_codebook(
            [stream.astype(np.int64)], bits, use_run_length=use_run_length
        )
    return _BOOKS[key]


@st.composite
def window_stacks(draw):
    """A (windows, samples) stack plus its codebook parameters."""
    bits = draw(st.sampled_from([7, 8]))
    use_run_length = draw(st.booleans())
    w = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=75))
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            min_size=w * k,
            max_size=w * k,
        )
    )
    codes = np.array(flat, dtype=np.int64).reshape(w, k)
    return bits, use_run_length, codes


class TestRoundTrip:
    @given(window_stacks())
    @settings(max_examples=60, deadline=None)
    def test_batched_encode_scalar_decode(self, params):
        bits, use_run_length, codes = params
        book = _book(bits, use_run_length)
        for row, (payload, bit_length) in zip(
            codes, book.encode_windows(codes)
        ):
            assert np.array_equal(
                book.decode_window(payload, row.size, bit_length), row
            )

    @given(window_stacks())
    @settings(max_examples=60, deadline=None)
    def test_batched_bytes_equal_scalar_bytes(self, params):
        bits, use_run_length, codes = params
        book = _book(bits, use_run_length)
        batched = book.encode_windows(codes)
        scalar = [encode_window(book, row) for row in codes]
        assert batched == scalar

    @given(
        st.integers(min_value=1, max_value=400),
        st.sampled_from([7, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_zero_windows_any_tail(self, k, bits):
        """Pure zero runs of every length, including non-power-of-two tails."""
        book = _book(bits, True)
        codes = np.zeros((2, k), dtype=np.int64)
        batched = book.encode_windows(codes)
        assert batched == [encode_window(book, row) for row in codes]
        payload, bit_length = batched[0]
        assert np.array_equal(
            book.decode_window(payload, k, bit_length), codes[0]
        )
