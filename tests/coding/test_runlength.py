"""Tests of zero-run-length tokenization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.runlength import (
    MAX_RUN_EXPONENT,
    ZeroRun,
    token_histogram,
    tokenize_diffs,
)


class TestZeroRunToken:
    def test_interning(self):
        assert ZeroRun(4) is ZeroRun(4)

    def test_valid_lengths_are_powers_of_two(self):
        for exp in range(1, MAX_RUN_EXPONENT + 1):
            assert ZeroRun(1 << exp).length == 1 << exp

    def test_invalid_lengths_rejected(self):
        for bad in (0, 1, 3, 6, (1 << MAX_RUN_EXPONENT) * 2):
            with pytest.raises(ValueError):
                ZeroRun(bad)

    def test_repr(self):
        assert repr(ZeroRun(8)) == "ZeroRun(8)"


class TestTokenize:
    def test_no_zeros_passthrough(self):
        diffs = [3, -1, 7, -2]
        assert tokenize_diffs(diffs) == diffs

    def test_single_zero_stays_int(self):
        assert tokenize_diffs([1, 0, 2]) == [1, 0, 2]

    def test_run_of_four(self):
        assert tokenize_diffs([0, 0, 0, 0]) == [ZeroRun(4)]

    def test_greedy_decomposition(self):
        # 7 zeros = 4 + 2 + 1.
        assert tokenize_diffs([0] * 7) == [ZeroRun(4), ZeroRun(2), 0]

    def test_run_longer_than_cap(self):
        cap = 1 << MAX_RUN_EXPONENT
        tokens = tokenize_diffs([0] * (cap + 2))
        assert tokens == [ZeroRun(cap), ZeroRun(2)]

    def test_mixed_stream(self):
        tokens = tokenize_diffs([5, 0, 0, -1, 0, 0, 0, 0, 2])
        assert tokens == [5, ZeroRun(2), -1, ZeroRun(4), 2]

    def test_empty(self):
        assert tokenize_diffs([]) == []

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            tokenize_diffs(np.zeros((2, 2), dtype=np.int64))


def detokenize_diffs(tokens):
    """Inverse of ``tokenize_diffs``: expand each run back into its zeros."""
    out = []
    for tok in tokens:
        out.extend([0] * tok.length if isinstance(tok, ZeroRun) else [int(tok)])
    return np.asarray(out, dtype=np.int64)


class TestRoundtrip:
    def test_detokenize_inverts(self):
        diffs = np.array([1, 0, 0, 0, -2, 0, 3], dtype=np.int64)
        assert np.array_equal(detokenize_diffs(tokenize_diffs(diffs)), diffs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(-50, 50)),
            min_size=0,
            max_size=600,
        )
    )
    def test_roundtrip_property(self, diffs):
        arr = np.asarray(diffs, dtype=np.int64)
        assert np.array_equal(detokenize_diffs(tokenize_diffs(arr)), arr)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2000))
    def test_pure_run_roundtrip(self, length):
        arr = np.zeros(length, dtype=np.int64)
        assert np.array_equal(detokenize_diffs(tokenize_diffs(arr)), arr)


class TestHistogram:
    def test_counts_tokens(self):
        hist = token_histogram([0, 0, 1, 0, 0, 1])
        assert hist[ZeroRun(2)] == 2
        assert hist[1] == 2

    def test_token_savings(self):
        """The point of the transform: long runs collapse to few tokens."""
        diffs = [0] * 1000
        tokens = tokenize_diffs(diffs)
        assert len(tokens) <= 1000 // (1 << MAX_RUN_EXPONENT) + MAX_RUN_EXPONENT
