"""Canonical Huffman coding.

The node stores an *offline-generated* codebook (paper Section III-B) and
encodes the differenced low-resolution stream with it.  Canonical codes are
used because they minimize on-node storage: the codebook is fully described
by the (symbol, code length) pairs, which is exactly what the paper's Fig. 5
storage accounting assumes.

Pipeline: :func:`code_lengths_from_frequencies` builds optimal lengths via
the standard two-queue Huffman construction; :func:`canonical_codes` assigns
canonical codewords; :class:`HuffmanCodec` holds the resulting code table.
Coding whole windows with it is
:class:`~repro.coding.codebook.DifferenceCodebook`'s job, through the
table-driven kernels of :mod:`repro.coding.vectorized`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Tuple

__all__ = [
    "code_lengths_from_frequencies",
    "canonical_codes",
    "HuffmanCodec",
]

Symbol = Hashable


def code_lengths_from_frequencies(
    frequencies: Mapping[Symbol, float],
) -> Dict[Symbol, int]:
    """Optimal prefix-code lengths for the given symbol frequencies.

    Standard heap-based Huffman construction.  Zero-frequency symbols are
    rejected (drop them before calling); a single-symbol alphabet gets a
    1-bit code (a real encoder must still emit something decodable).
    """
    if not frequencies:
        raise ValueError("frequency table is empty")
    for sym, freq in frequencies.items():
        if freq <= 0:
            raise ValueError(f"symbol {sym!r} has non-positive frequency")
    if len(frequencies) == 1:
        (sym,) = frequencies
        return {sym: 1}

    # Heap entries: (weight, tiebreak, node); leaves are symbols, internal
    # nodes are lists of their leaf symbols, so we can add depth lazily.
    heap: List[Tuple[float, int, List[Symbol]]] = []
    lengths: Dict[Symbol, int] = {}
    for tiebreak, (sym, freq) in enumerate(sorted(frequencies.items(), key=str)):
        heapq.heappush(heap, (float(freq), tiebreak, [sym]))
        lengths[sym] = 0
    counter = len(frequencies)
    while len(heap) > 1:
        w1, _, leaves1 = heapq.heappop(heap)
        w2, _, leaves2 = heapq.heappop(heap)
        merged = leaves1 + leaves2
        for sym in merged:
            lengths[sym] += 1
        heapq.heappush(heap, (w1 + w2, counter, merged))
        counter += 1
    return lengths


def canonical_codes(
    lengths: Mapping[Symbol, int],
) -> Dict[Symbol, Tuple[int, int]]:
    """Assign canonical codewords from code lengths.

    Symbols are sorted by (length, repr) and numbered with the canonical
    increment-and-shift rule.  Returns ``{symbol: (code_value, length)}``;
    the ``length`` MSBs of ``code_value`` are the codeword.
    """
    if not lengths:
        raise ValueError("length table is empty")
    for sym, ln in lengths.items():
        if ln <= 0:
            raise ValueError(f"symbol {sym!r} has non-positive code length")
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], str(kv[0])))
    codes: Dict[Symbol, Tuple[int, int]] = {}
    code = 0
    prev_len = ordered[0][1]
    for sym, ln in ordered:
        code <<= ln - prev_len
        prev_len = ln
        if code >= (1 << ln):
            raise ValueError("code lengths violate Kraft inequality")
        codes[sym] = (code, ln)
        code += 1
    return codes


@dataclass(frozen=True)
class HuffmanCodec:
    """A fixed canonical code table: ``{symbol: (code_value, length)}``.

    Build with :meth:`from_frequencies` (training) or :meth:`from_lengths`
    (reloading a stored codebook — lengths are all a canonical codebook
    needs, mirroring what the node would keep in flash).
    """

    codes: Mapping[Symbol, Tuple[int, int]]

    @staticmethod
    def from_frequencies(frequencies: Mapping[Symbol, float]) -> "HuffmanCodec":
        """Train a codec on a frequency table."""
        lengths = code_lengths_from_frequencies(frequencies)
        return HuffmanCodec(canonical_codes(lengths))

    @staticmethod
    def from_lengths(lengths: Mapping[Symbol, int]) -> "HuffmanCodec":
        """Rebuild a codec from stored (symbol, length) pairs."""
        return HuffmanCodec(canonical_codes(lengths))

    @property
    def symbols(self) -> Tuple[Symbol, ...]:
        """The coded alphabet."""
        return tuple(self.codes.keys())

    def code_length(self, symbol: Symbol) -> int:
        """Length in bits of a symbol's codeword."""
        return self.codes[symbol][1]

    def mean_code_length(self, frequencies: Mapping[Symbol, float]) -> float:
        """Expected bits/symbol under the given (unnormalized) frequencies."""
        total = float(sum(frequencies.values()))
        if total <= 0:
            raise ValueError("frequencies sum to zero")
        bits = 0.0
        for sym, freq in frequencies.items():
            bits += freq * self.codes[sym][1]
        return bits / total
