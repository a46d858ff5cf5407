"""Tests of the static arithmetic (range) coder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.baselines import ArithmeticCodec, ArithmeticModel
from repro.coding.huffman import HuffmanCodec


class TestModel:
    def test_cumulative_structure(self):
        model = ArithmeticModel.from_frequencies({"a": 3, "b": 1})
        assert model.cumulative[0] == 0
        assert model.total == model.cumulative[-1]
        assert len(model.cumulative) == len(model.symbols) + 1

    def test_every_symbol_has_mass(self):
        # A tiny-probability symbol still gets >= 1 count.
        model = ArithmeticModel.from_frequencies({"big": 1e9, "small": 1e-9})
        lo, hi = model.interval("small")
        assert hi - lo >= 1

    def test_symbol_lookup(self):
        model = ArithmeticModel.from_frequencies({"a": 1, "b": 1, "c": 2})
        for sym in model.symbols:
            lo, hi = model.interval(sym)
            found, f_lo, f_hi = model.symbol_for(lo)
            assert found == sym
            assert (f_lo, f_hi) == (lo, hi)

    def test_unknown_symbol(self):
        model = ArithmeticModel.from_frequencies({"a": 1})
        with pytest.raises(KeyError):
            model.interval("z")

    def test_validation(self):
        with pytest.raises(ValueError):
            ArithmeticModel.from_frequencies({})
        with pytest.raises(ValueError):
            ArithmeticModel.from_frequencies({"a": -1.0})


class TestCodec:
    def _codec(self, freqs):
        return ArithmeticCodec(ArithmeticModel.from_frequencies(freqs))

    def test_roundtrip_small(self):
        codec = self._codec({"a": 5, "b": 2, "c": 1})
        msg = list("abacabaacc")
        payload, bits = codec.encode(msg)
        assert codec.decode(payload, len(msg), bits) == msg

    def test_roundtrip_skewed(self):
        codec = self._codec({0: 1000, 1: 1})
        msg = [0] * 500 + [1] + [0] * 499
        payload, bits = codec.encode(msg)
        assert codec.decode(payload, len(msg), bits) == msg
        # Heavily skewed stream: far below 1 bit/symbol.
        assert bits < 0.2 * len(msg)

    def test_empty_message(self):
        codec = self._codec({"a": 1})
        payload, bits = codec.encode([])
        assert codec.decode(payload, 0, bits) == []

    def test_beats_huffman_on_skewed_alphabet(self):
        """The reason to measure the gap: Huffman is floored at
        1 bit/symbol, arithmetic is not."""
        freqs = {0: 95, 1: 3, 2: 2}
        rng = np.random.default_rng(0)
        msg = rng.choice([0, 1, 2], size=4000, p=[0.95, 0.03, 0.02]).tolist()
        arith = self._codec(freqs)
        huff = HuffmanCodec.from_frequencies(freqs)
        _, a_bits = arith.encode(msg)
        h_bits = sum(huff.code_length(s) for s in msg)
        assert a_bits < 0.5 * h_bits

    def test_near_entropy(self):
        """Measured rate within ~2% + 1 byte of the source entropy."""
        rng = np.random.default_rng(1)
        p = np.array([0.6, 0.25, 0.1, 0.05])
        msg = rng.choice(4, size=8000, p=p).tolist()
        freqs = {i: float(pi) for i, pi in enumerate(p)}
        codec = self._codec(freqs)
        _, bits = codec.encode(msg)
        entropy = -float(np.sum(p * np.log2(p)))
        assert bits / len(msg) < entropy * 1.02 + 8 / len(msg)

    def test_cross_entropy_helper(self):
        codec = self._codec({"a": 1, "b": 1})
        xent = codec.mean_bits_per_symbol({"a": 1, "b": 1})
        assert xent == pytest.approx(1.0, abs=0.01)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=300))
    def test_roundtrip_property(self, msg):
        freqs = {}
        for s in msg:
            freqs[s] = freqs.get(s, 0) + 1
        codec = self._codec(freqs)
        payload, bits = codec.encode(msg)
        assert codec.decode(payload, len(msg), bits) == msg

    def test_mixed_symbol_types(self):
        """Run-length tokens and ESCAPE coexist with int symbols."""
        from repro.coding.runlength import ZeroRun

        freqs = {0: 10, 1: 3, ZeroRun(4): 5, "ESC": 1}
        codec = self._codec(freqs)
        msg = [0, ZeroRun(4), 1, "ESC", 0, ZeroRun(4)]
        payload, bits = codec.encode(msg)
        assert codec.decode(payload, len(msg), bits) == msg
