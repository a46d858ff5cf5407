"""Zero-run-length tokenization of the difference stream.

At low quantizer resolutions the difference stream is dominated by long
runs of exact zeros (Fig. 4: the PDF mass concentrates at 0 as resolution
drops).  Symbol-per-sample Huffman coding is floored at 1 bit/sample, but
the paper's Table I overheads (e.g. 2.3 % at 3-bit, i.e. ~0.09 bits/sample
of the 3-bit stream) are far below that floor — so the entropy coder must
be exploiting runs.  This module provides the classic fix: replace each
maximal run of ``z`` zero differences by a greedy sequence of
``ZRL(2^j)`` tokens (power-of-two run lengths up to a cap), leaving
non-zero differences as their own tokens.  Huffman coding the *token*
stream then reaches sub-bit-per-sample rates on exactly the streams the
paper describes, while staying a strictly lossless transform.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

__all__ = ["ZeroRun", "tokenize_diffs", "MAX_RUN_EXPONENT"]

#: Largest run token is ``2**MAX_RUN_EXPONENT`` zeros.
MAX_RUN_EXPONENT = 8


class ZeroRun:
    """Token for a run of ``length`` zero differences.

    ``length`` is always a power of two (greedy binary decomposition of the
    actual run).  Instances are interned per length so they hash/compare
    cheaply and train cleanly as Huffman symbols.
    """

    _cache: dict = {}

    def __new__(cls, length: int) -> "ZeroRun":
        if length < 2 or length & (length - 1):
            raise ValueError("run length must be a power of two >= 2")
        if length > (1 << MAX_RUN_EXPONENT):
            raise ValueError(f"run length capped at {1 << MAX_RUN_EXPONENT}")
        cached = cls._cache.get(length)
        if cached is None:
            cached = super().__new__(cls)
            cached._length = length
            cls._cache[length] = cached
        return cached

    @property
    def length(self) -> int:
        """Number of zero differences this token stands for."""
        return self._length

    def __repr__(self) -> str:
        return f"ZeroRun({self._length})"

    def __reduce__(self):
        return (ZeroRun, (self._length,))


Token = Union[int, ZeroRun]


def tokenize_diffs(diffs: Sequence[int]) -> List[Token]:
    """Turn a difference sequence into a token stream.

    Non-zero differences map to themselves (ints); maximal zero runs are
    decomposed greedily into the largest power-of-two :class:`ZeroRun`
    tokens (cap ``2**MAX_RUN_EXPONENT``), with a single leftover zero kept
    as the int token ``0``.  The transform is exactly invertible: expand
    each run back into its zeros.
    """
    arr = np.asarray(diffs, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("diffs must be 1-D")
    tokens: List[Token] = []
    i = 0
    n = arr.size
    while i < n:
        value = int(arr[i])
        if value != 0:
            tokens.append(value)
            i += 1
            continue
        # Measure the maximal zero run.
        j = i
        while j < n and arr[j] == 0:
            j += 1
        run = j - i
        # Greedy binary decomposition, largest chunks first.
        for exponent in range(MAX_RUN_EXPONENT, 0, -1):
            chunk = 1 << exponent
            while run >= chunk:
                tokens.append(ZeroRun(chunk))
                run -= chunk
        if run == 1:
            tokens.append(0)
        i = j
    return tokens


def token_histogram(diffs: Sequence[int]) -> dict:
    """Token frequency table for codebook training.

    Equivalent to ``Counter(tokenize_diffs(diffs))`` — only occurring
    tokens appear — but computed with array kernels: non-zero differences
    through ``np.unique``, zero runs through run-boundary detection plus
    the same greedy binary decomposition as :func:`tokenize_diffs`
    (``run // 256`` top-size chunks, then the set bits of ``run % 256``).
    This keeps full-database codebook training out of per-sample Python.
    """
    arr = np.asarray(diffs, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("diffs must be 1-D")
    counts: dict = {}
    nonzero = arr[arr != 0]
    if nonzero.size:
        values, tallies = np.unique(nonzero, return_counts=True)
        counts.update(
            (int(v), int(c)) for v, c in zip(values, tallies)
        )
    zero = arr == 0
    if zero.any():
        starts = np.flatnonzero(zero & ~np.concatenate(([False], zero[:-1])))
        ends = np.flatnonzero(zero & ~np.concatenate((zero[1:], [False])))
        run_lens = ends - starts + 1
        cap = 1 << MAX_RUN_EXPONENT
        top = int((run_lens // cap).sum())
        if top:
            counts[ZeroRun(cap)] = top
        remainders = run_lens % cap
        for exponent in range(MAX_RUN_EXPONENT - 1, 0, -1):
            hits = int(((remainders >> exponent) & 1).sum())
            if hits:
                counts[ZeroRun(1 << exponent)] = hits
        lone = int((remainders & 1).sum())
        if lone:
            counts[0] = lone
    return counts
