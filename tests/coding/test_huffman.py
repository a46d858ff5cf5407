"""Tests of canonical Huffman coding: optimality, prefix-freeness,
roundtrips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.bitstream import BitReader, BitWriter
from repro.coding.huffman import (
    HuffmanCodec,
    canonical_codes,
    code_lengths_from_frequencies,
)
from tests.per_bit_oracles import decode_symbol, encode_symbol


def _roundtrip(codec, message):
    """Write ``message`` with the code table, then read it back bit by bit."""
    writer = BitWriter()
    for sym in message:
        encode_symbol(codec, sym, writer)
    reader = BitReader(writer.getvalue(), writer.bit_length)
    decoded = [decode_symbol(codec, reader) for _ in message]
    assert reader.bits_remaining == 0
    return decoded, writer.bit_length


class TestCodeLengths:
    def test_uniform_four_symbols(self):
        lengths = code_lengths_from_frequencies({s: 1.0 for s in "abcd"})
        assert all(ln == 2 for ln in lengths.values())

    def test_skewed_distribution(self):
        lengths = code_lengths_from_frequencies({"a": 8, "b": 4, "c": 2, "d": 1, "e": 1})
        assert lengths["a"] == 1
        assert lengths["d"] == lengths["e"] == 4

    def test_single_symbol_gets_one_bit(self):
        assert code_lengths_from_frequencies({"x": 10}) == {"x": 1}

    def test_kraft_equality(self):
        """Huffman lengths saturate the Kraft inequality."""
        freqs = {i: (i + 1) ** 2 for i in range(17)}
        lengths = code_lengths_from_frequencies(freqs)
        assert sum(2.0 ** -ln for ln in lengths.values()) == pytest.approx(1.0)

    def test_optimal_vs_entropy(self):
        """Mean length within 1 bit of the entropy (Huffman's bound)."""
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(25))
        freqs = {i: float(p) for i, p in enumerate(probs)}
        lengths = code_lengths_from_frequencies(freqs)
        mean_len = sum(probs[i] * lengths[i] for i in range(25))
        entropy = -float(np.sum(probs * np.log2(probs)))
        assert entropy <= mean_len < entropy + 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            code_lengths_from_frequencies({})
        with pytest.raises(ValueError):
            code_lengths_from_frequencies({"a": 0.0})


class TestCanonicalCodes:
    def test_prefix_free(self):
        lengths = {"a": 1, "b": 2, "c": 3, "d": 3}
        codes = canonical_codes(lengths)
        words = [format(c, f"0{ln}b") for c, ln in codes.values()]
        for i, w1 in enumerate(words):
            for j, w2 in enumerate(words):
                if i != j:
                    assert not w2.startswith(w1)

    def test_canonical_ordering(self):
        codes = canonical_codes({"a": 2, "b": 2, "c": 2, "d": 2})
        values = sorted(c for c, _ in codes.values())
        assert values == [0, 1, 2, 3]

    def test_kraft_violation_rejected(self):
        with pytest.raises(ValueError):
            canonical_codes({"a": 1, "b": 1, "c": 1})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonical_codes({})


class TestHuffmanCodec:
    def _codec(self):
        return HuffmanCodec.from_frequencies(
            {"a": 40, "b": 30, "c": 20, "d": 10}
        )

    def test_encode_decode_roundtrip(self):
        codec = self._codec()
        msg = list("abacabadabra".replace("r", "a"))
        decoded, bits = _roundtrip(codec, msg)
        assert decoded == msg
        assert bits == sum(codec.code_length(s) for s in msg)

    def test_common_symbol_shorter(self):
        codec = self._codec()
        assert codec.code_length("a") <= codec.code_length("d")

    def test_mean_code_length(self):
        codec = self._codec()
        freqs = {"a": 40, "b": 30, "c": 20, "d": 10}
        mean = codec.mean_code_length(freqs)
        assert 1.0 <= mean <= 2.0

    def test_from_lengths_rebuilds_same_codes(self):
        codec = self._codec()
        lengths = {s: ln for s, (_, ln) in codec.codes.items()}
        rebuilt = HuffmanCodec.from_lengths(lengths)
        assert rebuilt.codes == codec.codes

    def test_unknown_symbol_rejected(self):
        codec = self._codec()
        with pytest.raises(KeyError):
            codec.code_length("z")

    def test_decode_symbol_streaming(self):
        codec = self._codec()
        w = BitWriter()
        encode_symbol(codec, "c", w)
        encode_symbol(codec, "a", w)
        r = BitReader(w.getvalue(), w.bit_length)
        assert decode_symbol(codec, r) == "c"
        assert decode_symbol(codec, r) == "a"

    def test_single_symbol_codec(self):
        codec = HuffmanCodec.from_frequencies({"only": 5})
        decoded, bits = _roundtrip(codec, ["only"] * 7)
        assert bits == 7
        assert decoded == ["only"] * 7

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=200),
    )
    def test_roundtrip_property(self, message):
        """Any integer message round-trips through a codec trained on its
        own alphabet."""
        freqs = {}
        for s in message:
            freqs[s] = freqs.get(s, 0) + 1
        codec = HuffmanCodec.from_frequencies(freqs)
        assert _roundtrip(codec, message)[0] == message
