"""Offline-generated difference codebooks with on-node storage accounting.

Section III-B of the paper: the Huffman codebook for the differenced
low-resolution stream is generated *offline* (from training data) and
stored on the node, so two figures of merit matter besides compression:

* **codebook storage** (Fig. 5) — bytes of flash needed for the canonical
  (symbol, code-length) table; 68 bytes at the chosen 7-bit operating
  point;
* **robustness to unseen symbols** — a rare difference outside the trained
  alphabet must still be transmittable.  We use the standard ESCAPE-symbol
  mechanism: an escape codeword followed by the raw difference at fixed
  width.  (The paper does not spell out its mechanism; an escape code is
  the minimal-storage choice consistent with its byte counts.)

Two coding modes are supported:

* ``use_run_length=True`` (default): the difference stream is first
  tokenized with :mod:`repro.coding.runlength` so maximal zero runs cost a
  single codeword.  This is required to reach the paper's Table I overhead
  numbers, which fall below the 1-bit/sample floor of symbol-wise Huffman;
* ``use_run_length=False``: plain symbol-per-difference Huffman, kept as
  the ablation baseline (``benchmarks/test_ablation_coding.py``).

:class:`DifferenceCodebook` bundles the trained codec, the encoder/decoder
for whole low-res windows, and the storage model; :func:`train_codebook`
fits one on a corpus of quantized streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.coding.differential import difference_encode
from repro.coding.huffman import HuffmanCodec
from repro.coding.runlength import MAX_RUN_EXPONENT, ZeroRun, token_histogram

__all__ = ["ESCAPE", "DifferenceCodebook", "train_codebook"]

#: Sentinel symbol for differences outside the trained alphabet.
ESCAPE = "ESC"

#: Bits used to store one code length in the on-node table (lengths up to 31).
_LENGTH_FIELD_BITS = 5


@dataclass(frozen=True)
class DifferenceCodebook:
    """A trained canonical Huffman codebook over difference tokens.

    Attributes
    ----------
    resolution_bits:
        The low-res quantizer depth B this codebook was trained for; the
        raw escape payload and the first-sample field are sized from it.
    codec:
        The canonical Huffman codec over the token alphabet
        (``{differences...} ∪ {ZeroRun...} ∪ {ESCAPE}``).
    use_run_length:
        Whether windows are tokenized with zero-run-length coding before
        Huffman coding.
    """

    resolution_bits: int
    codec: HuffmanCodec
    use_run_length: bool = True

    def __post_init__(self) -> None:
        if self.resolution_bits <= 0:
            raise ValueError("resolution_bits must be positive")
        if ESCAPE not in self.codec.codes:
            raise ValueError("codebook must contain the ESCAPE symbol")
        if self.use_run_length:
            missing = [
                exp
                for exp in range(1, MAX_RUN_EXPONENT + 1)
                if ZeroRun(1 << exp) not in self.codec.codes
            ]
            if missing or 0 not in self.codec.codes:
                raise ValueError(
                    "run-length codebooks must code every ZeroRun token and 0"
                )

    # ------------------------------------------------------------------
    # Alphabet and storage accounting
    # ------------------------------------------------------------------
    @property
    def alphabet(self) -> Tuple[int, ...]:
        """The trained *difference* values (runs and escape excluded)."""
        return tuple(
            sorted(s for s in self.codec.symbols if isinstance(s, int))
        )

    @property
    def n_entries(self) -> int:
        """Number of stored table entries (runs and escape included)."""
        return len(self.codec.symbols)

    @property
    def symbol_field_bits(self) -> int:
        """Bits to store one symbol value in the table.

        A difference of B-bit codes lies in ``[-(2^B - 1), 2^B - 1]``, so a
        signed (B+1)-bit field suffices; the run and escape entries reuse
        reserved patterns of the same field.
        """
        return self.resolution_bits + 1

    @property
    def escape_payload_bits(self) -> int:
        """Fixed width of the raw difference following an escape code."""
        return self.resolution_bits + 1

    def storage_bytes(self) -> int:
        """On-node flash for the canonical table (paper Fig. 5 model).

        Each entry stores the symbol value and its code length; canonical
        codes need nothing else.  Entries are byte-aligned (flash writes
        are byte-granular on the paper's class of sensor nodes).
        """
        entry_bits = self.symbol_field_bits + _LENGTH_FIELD_BITS
        entry_bytes = math.ceil(entry_bits / 8)
        return self.n_entries * entry_bytes

    # ------------------------------------------------------------------
    # Stream coding
    # ------------------------------------------------------------------
    def encode_window(self, codes: np.ndarray) -> Tuple[bytes, int]:
        """Encode one window of B-bit codes; returns (payload, bit length).

        Layout: first sample raw (B bits), then one Huffman codeword per
        token, escapes carrying a raw (B+1)-bit signed difference.  A
        one-row call of :meth:`encode_windows`.
        """
        arr = np.asarray(codes)
        if arr.ndim != 1:
            raise ValueError("expected a non-empty 1-D code stream")
        return self.encode_windows(arr[None])[0]

    @cached_property
    def tables(self):
        """Vectorized-encoder LUTs (:class:`~repro.coding.vectorized.
        CodebookTables`), built lazily once per codebook.

        ``cached_property`` stores into the instance ``__dict__`` so the
        frozen dataclass stays immutable from the caller's perspective.
        """
        from repro.coding.vectorized import build_tables

        return build_tables(self)

    def encode_windows(self, codes: np.ndarray) -> List[Tuple[bytes, int]]:
        """Encode a ``(windows, samples)`` stack of B-bit code windows.

        One pass of array kernels (:mod:`repro.coding.vectorized`); each
        window's bytes do not depend on the rest of the stack, and equal
        the per-token reference encoder's (``docs/encoding.md``).
        Returns one ``(payload, bit_length)`` pair per window.
        """
        arr = np.asarray(codes)
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError("difference coding operates on integer codes")
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise ValueError("expected a non-empty (windows, samples) matrix")
        if arr.size and (
            arr.min() < 0 or arr.max() >= (1 << self.resolution_bits)
        ):
            raise ValueError(
                f"codes out of range for {self.resolution_bits}-bit resolution"
            )
        from repro.coding.vectorized import encode_code_windows

        payloads, bit_lengths = encode_code_windows(self.tables, arr)
        return [
            (payload, int(bits))
            for payload, bits in zip(payloads, bit_lengths)
        ]

    @cached_property
    def decode_tables(self):
        """Table-driven decoder state (:class:`~repro.coding.vectorized.
        DecodeTables`), built lazily once per codebook like :attr:`tables`."""
        from repro.coding.vectorized import build_decode_tables

        return build_decode_tables(self)

    def decode_window(
        self, payload: bytes, n_samples: int, bit_length: int | None = None
    ) -> np.ndarray:
        """Inverse of :meth:`encode_window`; the B-bit codes, shape ``(n,)``.

        Table-driven (:func:`repro.coding.vectorized.decode_code_window`):
        a truncated payload raises ``EOFError``, a desynchronised one
        ``ValueError``, exactly where a bit-at-a-time decode would.
        """
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        from repro.coding.vectorized import decode_code_window

        return decode_code_window(
            self.decode_tables, payload, n_samples, bit_length
        )

    def compressed_fraction(self, codes: np.ndarray) -> float:
        """Encoded size over raw size ``n * B`` for one window.

        This is the per-window ``CR_i`` of the paper's Eq. (2) / Fig. 6.
        """
        arr = np.asarray(codes)
        _, bits = self.encode_window(arr)
        raw_bits = arr.size * self.resolution_bits
        return bits / raw_bits


def train_codebook(
    streams: Iterable[np.ndarray],
    resolution_bits: int,
    *,
    coverage: float = 0.999,
    escape_weight: float = 0.5,
    use_run_length: bool = True,
) -> DifferenceCodebook:
    """Fit a :class:`DifferenceCodebook` on training code streams.

    Parameters
    ----------
    streams:
        Iterable of integer B-bit code arrays (e.g. one per record).
    resolution_bits:
        The quantizer depth B the streams were produced at.
    coverage:
        Keep the most frequent *difference* tokens until this fraction of
        the training mass is covered; the tail is handled by the escape
        code.  Run tokens (and the lone zero) are always kept — the
        decoder depends on them.  Trimming the tail is what keeps the
        stored table small (Fig. 5) at negligible cost in code length.
    escape_weight:
        Pseudo-count weight (relative to the trimmed tail mass, floored at
        one count) given to the escape symbol when building the tree.
    use_run_length:
        Tokenize zero runs before coding (default; see module docstring).
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    histogram: Dict[object, int] = {}
    total = 0
    for stream in streams:
        _, diffs = difference_encode(np.asarray(stream))
        if use_run_length:
            stream_counts = token_histogram(diffs)
        else:
            values, tallies = np.unique(diffs, return_counts=True)
            stream_counts = {
                int(v): int(c) for v, c in zip(values, tallies)
            }
        for tok, count in stream_counts.items():
            histogram[tok] = histogram.get(tok, 0) + count
            total += count
    if total == 0:
        raise ValueError("training corpus has no differences")

    frequencies: Dict[object, float] = {}
    if use_run_length:
        # Mandatory tokens: every run length and the lone zero, with at
        # least a pseudo-count so the decoder can always follow.
        for exp in range(1, MAX_RUN_EXPONENT + 1):
            run = ZeroRun(1 << exp)
            frequencies[run] = float(histogram.pop(run, 0)) + 1.0
        frequencies[0] = float(histogram.pop(0, 0)) + 1.0

    ranked = sorted(
        histogram.items(), key=lambda kv: (-kv[1], str(kv[0]))
    )
    covered = sum(int(v) for v in frequencies.values())
    kept_any = False
    for value, count in ranked:
        if kept_any and covered / total >= coverage:
            break
        frequencies[value] = float(count)
        covered += count
        kept_any = True
    tail_mass = max(0, total - covered)
    frequencies[ESCAPE] = max(1.0, escape_weight * tail_mass)
    codec = HuffmanCodec.from_frequencies(frequencies)
    return DifferenceCodebook(
        resolution_bits=resolution_bits,
        codec=codec,
        use_run_length=use_run_length,
    )
