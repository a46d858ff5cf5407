"""Lossless entropy coding of the low-resolution channel (paper §III-B)."""

from repro.coding.bitstream import BitReader, BitWriter
from repro.coding.codebook import DifferenceCodebook, ESCAPE, train_codebook
from repro.coding.differential import (
    difference_decode,
    difference_encode,
    difference_histogram,
    difference_pdf,
    empirical_entropy_bits,
)
from repro.coding.huffman import (
    HuffmanCodec,
    canonical_codes,
    code_lengths_from_frequencies,
)
from repro.coding.runlength import (
    MAX_RUN_EXPONENT,
    ZeroRun,
    detokenize_diffs,
    token_histogram,
    tokenize_diffs,
)
from repro.coding.vectorized import CodebookTables, build_tables

__all__ = [
    "BitReader",
    "BitWriter",
    "CodebookTables",
    "DifferenceCodebook",
    "ESCAPE",
    "HuffmanCodec",
    "MAX_RUN_EXPONENT",
    "ZeroRun",
    "detokenize_diffs",
    "token_histogram",
    "tokenize_diffs",
    "build_tables",
    "canonical_codes",
    "code_lengths_from_frequencies",
    "difference_decode",
    "difference_encode",
    "difference_histogram",
    "difference_pdf",
    "empirical_entropy_bits",
    "train_codebook",
]
