"""Table-driven vectorized coder for the low-res channel.

The paper's streaming encoder walks one token at a time, writing each
codeword bit by bit.  That loop now lives only in the test suite
(``tests/per_bit_oracles.py``); this module is the one encoder
:class:`~repro.coding.codebook.DifferenceCodebook` runs, the *identical*
encoding re-expressed as array kernels:

* :func:`build_tables` precomputes per-symbol ``(codeword, bit length)``
  look-up arrays from the canonical codebook — differences index a dense
  LUT (out-of-alphabet differences get the ESCAPE codeword fused with
  their raw payload field into one wider codeword), zero-run tokens index
  a small per-exponent LUT;
* :func:`encode_code_windows` maps a whole ``(w, k)`` stack of low-res
  code windows to per-window payloads in one pass: ``np.diff`` across all
  windows, vectorized maximal-zero-run detection (runs never cross window
  boundaries), greedy power-of-two run decomposition via bit tricks, LUT
  fancy indexing, and bitstream assembly with cumulative-bit-offset
  arithmetic + :func:`numpy.packbits`.

The output is **byte-identical** to the per-token encoder — the same
first sample header, the same token order (largest run chunks first,
single leftover zero last), the same MSB-first packing and zero padding,
and no dependence on the other windows of the stack.  The test suite
asserts this equality exhaustively; ``docs/encoding.md`` states the
exactness contract.

The receiver side is table-driven too.  :func:`build_decode_tables`
left-aligns every codeword to the longest code length ``Lmax`` and
partitions ``[0, 2**Lmax)`` into the codewords' intervals (plus the
gaps an incomplete code leaves); :func:`decode_code_window` peeks
``Lmax`` bits at every bit position of a payload at once, finds each
peek's interval with one :func:`numpy.searchsorted`, and then only
follows the token starts, one list lookup per token.  It decodes what
the per-bit reference decoder of the test suite (one codeword bit at a
time from a :class:`~repro.coding.bitstream.BitReader`) decodes and
raises the same exception classes on truncated or desynchronised
payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.coding.differential import difference_decode
from repro.coding.runlength import MAX_RUN_EXPONENT, ZeroRun

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.coding.codebook import DifferenceCodebook

__all__ = [
    "CodebookTables",
    "DecodeTables",
    "build_tables",
    "build_decode_tables",
    "decode_code_window",
    "encode_code_windows",
    "pack_fields",
]


@dataclass(frozen=True)
class CodebookTables:
    """Dense codeword look-up arrays derived from one trained codebook.

    Attributes
    ----------
    resolution_bits:
        The B of the B-bit low-res stream the tables encode.
    use_run_length:
        Whether zero runs are tokenized before coding (mirrors the
        codebook's mode).
    diff_values, diff_lengths:
        Codeword value / bit length for every representable difference
        ``d`` of B-bit codes, indexed by ``d + 2**B - 1`` (shape
        ``(2**(B+1) - 1,)``).  Differences outside the trained alphabet
        hold the fused ``ESCAPE + raw (B+1)-bit field`` codeword, so one
        LUT read covers both cases.
    run_values, run_lengths:
        Codeword value / bit length for ``ZeroRun(2**e)`` indexed by the
        exponent ``e`` (index 0 unused; all-zero when run-length coding
        is off).
    """

    resolution_bits: int
    use_run_length: bool
    diff_values: np.ndarray
    diff_lengths: np.ndarray
    run_values: np.ndarray
    run_lengths: np.ndarray


def build_tables(codebook: "DifferenceCodebook") -> CodebookTables:
    """Precompute the vectorized-encoder LUTs for a trained codebook.

    One-time cost per codebook (cached on the codebook object by
    :attr:`DifferenceCodebook.tables`); the loop below runs over the
    ``2**(B+1) - 1`` representable differences, not over any data.
    """
    from repro.coding.codebook import ESCAPE

    bits = codebook.resolution_bits
    payload_bits = codebook.escape_payload_bits
    esc_code, esc_len = codebook.codec.codes[ESCAPE]
    offset = (1 << bits) - 1
    span = 2 * offset + 1
    coded = codebook.codec.codes
    diff_values = np.empty(span, dtype=np.uint64)
    diff_lengths = np.empty(span, dtype=np.int64)
    for d in range(-offset, offset + 1):
        entry = coded.get(d)
        if entry is None:
            # Fused escape: ESC codeword followed by the raw signed field,
            # exactly the bits a per-token encoder writes back to back.
            field = d + (1 << bits)
            value = (esc_code << payload_bits) | field
            length = esc_len + payload_bits
        else:
            value, length = entry
        diff_values[d + offset] = value
        diff_lengths[d + offset] = length
    run_values = np.zeros(MAX_RUN_EXPONENT + 1, dtype=np.uint64)
    run_lengths = np.zeros(MAX_RUN_EXPONENT + 1, dtype=np.int64)
    if codebook.use_run_length:
        for exponent in range(1, MAX_RUN_EXPONENT + 1):
            value, length = coded[ZeroRun(1 << exponent)]
            run_values[exponent] = value
            run_lengths[exponent] = length
    return CodebookTables(
        resolution_bits=bits,
        use_run_length=codebook.use_run_length,
        diff_values=diff_values,
        diff_lengths=diff_lengths,
        run_values=run_values,
        run_lengths=run_lengths,
    )


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0+c1, ...]`` without the final total; shape of input."""
    out = np.empty(counts.size, dtype=np.int64)
    if counts.size:
        out[0] = 0
        np.cumsum(counts[:-1], out=out[1:])
    return out


def _tokenize_stack(
    tables: CodebookTables, diffs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token codeword stream for a ``(w, k-1)`` difference stack.

    Returns ``(values, lengths, window_of_token)`` in transmit order
    (window-major, in-window stream order).  Zero runs are detected on
    the flattened stack with window boundaries acting as run breaks, then
    decomposed greedily exactly like
    :func:`repro.coding.runlength.tokenize_diffs`: ``run // 256`` tokens
    of ``ZeroRun(256)`` first, then the set bits of ``run % 256`` as
    descending power-of-two runs, then a lone leftover zero as the plain
    ``0`` difference token.
    """
    w, per_row = diffs.shape
    flat = diffs.ravel()
    n = flat.size
    lut_offset = (1 << tables.resolution_bits) - 1

    if not tables.use_run_length:
        values = tables.diff_values[flat + lut_offset]
        lengths = tables.diff_lengths[flat + lut_offset]
        windows = np.repeat(np.arange(w, dtype=np.int64), per_row)
        return values, lengths, windows

    zero = flat == 0
    # A zero run starts where a zero is not preceded by a zero *in the
    # same window*, and ends symmetrically; window edges break runs.
    prev_zero = np.empty(n, dtype=bool)
    prev_zero[0] = False
    prev_zero[1:] = zero[:-1]
    prev_zero[::per_row] = False
    next_zero = np.empty(n, dtype=bool)
    next_zero[-1] = False
    next_zero[:-1] = zero[1:]
    next_zero[per_row - 1 :: per_row] = False
    run_starts = np.flatnonzero(zero & ~prev_zero)
    run_ends = np.flatnonzero(zero & ~next_zero)
    run_lens = run_ends - run_starts + 1

    # Greedy binary decomposition of every run into token "classes",
    # ordered largest-first: [2^8 x q, 2^7, ..., 2^1, lone 0].
    cap = 1 << MAX_RUN_EXPONENT
    q, rem = run_lens // cap, run_lens % cap
    n_classes = MAX_RUN_EXPONENT + 1
    class_counts = np.empty((run_lens.size, n_classes), dtype=np.int64)
    class_counts[:, 0] = q
    for col, exponent in enumerate(range(MAX_RUN_EXPONENT - 1, 0, -1), start=1):
        class_counts[:, col] = (rem >> exponent) & 1
    class_counts[:, n_classes - 1] = rem & 1
    tokens_per_run = class_counts.sum(axis=1)

    # Codeword value/length per class, in the same largest-first order;
    # the lone leftover zero is the plain difference token 0.
    class_values = np.concatenate(
        [tables.run_values[MAX_RUN_EXPONENT:0:-1], tables.diff_values[[lut_offset]]]
    )
    class_lengths = np.concatenate(
        [tables.run_lengths[MAX_RUN_EXPONENT:0:-1], tables.diff_lengths[[lut_offset]]]
    )

    # Interleave run tokens with the non-zero difference tokens in stream
    # order without sorting: give every stream position its token count,
    # then scatter each producer at its position's cumulative offset.
    nonzero_pos = np.flatnonzero(~zero)
    counts_at = np.zeros(n, dtype=np.int64)
    counts_at[nonzero_pos] = 1
    counts_at[run_starts] = tokens_per_run
    token_offset_at = _exclusive_cumsum(counts_at)
    total = int(counts_at.sum())

    values = np.empty(total, dtype=np.uint64)
    lengths = np.empty(total, dtype=np.int64)
    windows = np.empty(total, dtype=np.int64)

    nz_idx = token_offset_at[nonzero_pos]
    values[nz_idx] = tables.diff_values[flat[nonzero_pos] + lut_offset]
    lengths[nz_idx] = tables.diff_lengths[flat[nonzero_pos] + lut_offset]
    windows[nz_idx] = nonzero_pos // per_row

    run_total = int(tokens_per_run.sum())
    if run_total:
        class_of_token = np.repeat(
            np.tile(np.arange(n_classes), run_lens.size), class_counts.ravel()
        )
        run_of_token = np.repeat(
            np.arange(run_lens.size, dtype=np.int64), tokens_per_run
        )
        intra = np.arange(run_total, dtype=np.int64) - np.repeat(
            _exclusive_cumsum(tokens_per_run), tokens_per_run
        )
        run_idx = token_offset_at[run_starts[run_of_token]] + intra
        values[run_idx] = class_values[class_of_token]
        lengths[run_idx] = class_lengths[class_of_token]
        windows[run_idx] = run_starts[run_of_token] // per_row
    return values, lengths, windows


def pack_fields(
    field_values: np.ndarray,
    field_lengths: np.ndarray,
    field_starts: np.ndarray,
) -> Tuple[List[bytes], np.ndarray]:
    """Assemble per-window MSB-first payloads from a flat field stream.

    ``field_values[i]`` carries the ``field_lengths[i]`` least-significant
    bits of field ``i``; ``field_starts[j]`` is the index of window
    ``j``'s first field (strictly increasing, every window non-empty).
    Each window's bitstream is zero-padded to whole bytes exactly like
    :meth:`BitWriter.getvalue`.  Returns ``(payloads, bit_lengths)``.
    """
    field_lengths = np.asarray(field_lengths, dtype=np.int64)
    n_windows = field_starts.size
    bits_per_window = np.add.reduceat(field_lengths, field_starts)
    bytes_per_window = (bits_per_window + 7) >> 3
    byte_base = _exclusive_cumsum(bytes_per_window)
    total_bytes = int(bytes_per_window.sum())

    fields_per_window = np.diff(np.append(field_starts, field_lengths.size))
    window_of_field = np.repeat(np.arange(n_windows, dtype=np.int64), fields_per_window)
    running = _exclusive_cumsum(field_lengths)
    within_window = running - running[field_starts][window_of_field]
    field_bit_pos = (byte_base[window_of_field] << 3) + within_window

    total_bits = int(field_lengths.sum())
    repeated_values = np.repeat(field_values.astype(np.uint64, copy=False), field_lengths)
    repeated_lengths = np.repeat(field_lengths, field_lengths)
    intra_bit = np.arange(total_bits, dtype=np.int64) - np.repeat(running, field_lengths)
    shifts = (repeated_lengths - 1 - intra_bit).astype(np.uint64, copy=False)
    bits = ((repeated_values >> shifts) & np.uint64(1)).astype(
        np.uint8, copy=False
    )

    buffer = np.zeros(total_bytes * 8, dtype=np.uint8)
    buffer[np.repeat(field_bit_pos, field_lengths) + intra_bit] = bits
    packed = np.packbits(buffer)
    payloads = [
        packed[byte_base[i] : byte_base[i] + bytes_per_window[i]].tobytes()
        for i in range(n_windows)
    ]
    return payloads, bits_per_window


def encode_code_windows(
    tables: CodebookTables, codes: np.ndarray
) -> Tuple[List[bytes], np.ndarray]:
    """Encode a ``(w, k)`` stack of B-bit code windows in one pass.

    Returns ``(payloads, bit_lengths)``: window ``i``'s payload bytes and
    exact bit count, byte-identical to encoding ``codes[i]`` alone.
    Caller validates the code range.
    """
    codes = np.ascontiguousarray(np.asarray(codes, dtype=np.int64))
    if codes.ndim != 2 or codes.shape[1] == 0:
        raise ValueError("expected a (windows, samples) code matrix")
    w, k = codes.shape
    bits = tables.resolution_bits
    first_values = codes[:, 0].astype(np.uint64, copy=False)

    if k > 1:
        token_values, token_lengths, token_windows = _tokenize_stack(
            tables, np.diff(codes, axis=1)
        )
    else:
        token_values = np.empty(0, dtype=np.uint64)
        token_lengths = np.empty(0, dtype=np.int64)
        token_windows = np.empty(0, dtype=np.int64)

    tokens_per_window = np.bincount(token_windows, minlength=w)
    field_starts = _exclusive_cumsum(1 + tokens_per_window)
    n_fields = w + token_values.size
    field_values = np.empty(n_fields, dtype=np.uint64)
    field_lengths = np.empty(n_fields, dtype=np.int64)
    field_values[field_starts] = first_values
    field_lengths[field_starts] = bits
    if token_values.size:
        intra = np.arange(token_values.size, dtype=np.int64) - _exclusive_cumsum(
            tokens_per_window
        )[token_windows]
        positions = field_starts[token_windows] + 1 + intra
        field_values[positions] = token_values
        field_lengths[positions] = token_lengths
    return pack_fields(field_values, field_lengths, field_starts)


#: Longest codeword the decoder peeks: a 64-bit word read at a byte
#: offset holds at least 57 bits from any bit position in that byte.
MAX_PEEK_BITS = 57


@dataclass(frozen=True)
class DecodeTables:
    """Interval tables that decode one trained codebook's payloads.

    Every codeword, left-aligned to ``peek_bits`` (the longest code
    length), owns the interval ``[code << (peek_bits - length), (code + 1)
    << (peek_bits - length))``; the intervals and the gaps between them
    partition ``[0, 2**peek_bits)`` and are listed by ``starts``.  The
    other arrays describe each interval's token.

    Attributes
    ----------
    resolution_bits:
        The B of the raw first-sample field.
    escape_bits:
        Width of the raw signed difference after an escape codeword.
    peek_bits:
        Longest code length ``Lmax``.
    starts:
        Interval starts, ascending from 0.
    steps:
        Bits the token occupies (codeword, plus the raw field after an
        escape); 0 marks a gap, where no codeword matches.
    samples:
        Differences the token stands for (the run length of a zero run).
    values:
        The token's difference (0 for zero runs and escapes).
    escape:
        Whether the token is the escape codeword.
    """

    resolution_bits: int
    escape_bits: int
    peek_bits: int
    starts: np.ndarray
    steps: np.ndarray
    samples: np.ndarray
    values: np.ndarray
    escape: np.ndarray


def build_decode_tables(codebook: "DifferenceCodebook") -> DecodeTables:
    """The interval tables of a trained codebook (one pass over its symbols)."""
    from repro.coding.codebook import ESCAPE

    codes = codebook.codec.codes
    peek = max(length for _, length in codes.values())
    if peek > MAX_PEEK_BITS:
        raise ValueError(f"codewords longer than {MAX_PEEK_BITS} bits")
    rows = []  # (start, step, samples, value, escape)
    cursor = 0
    for start, length, sym in sorted(
        (code << (peek - length), length, sym) for sym, (code, length) in codes.items()
    ):
        if start > cursor:
            rows.append((cursor, 0, 0, 0, False))
        if sym == ESCAPE:
            rows.append((start, length + codebook.escape_payload_bits, 1, 0, True))
        elif isinstance(sym, ZeroRun):
            rows.append((start, length, sym.length, 0, False))
        else:
            rows.append((start, length, 1, int(sym), False))
        cursor = start + (1 << (peek - length))
    if cursor < 1 << peek:
        rows.append((cursor, 0, 0, 0, False))
    starts, steps, samples, values, escape = zip(*rows)
    return DecodeTables(
        resolution_bits=codebook.resolution_bits,
        escape_bits=codebook.escape_payload_bits,
        peek_bits=peek,
        starts=np.array(starts, dtype=np.uint64),
        steps=np.array(steps, dtype=np.int64),
        samples=np.array(samples, dtype=np.int64),
        values=np.array(values, dtype=np.int64),
        escape=np.array(escape, dtype=bool),
    )


def _peek(words: np.ndarray, positions: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bits from each bit position, as ``uint64`` values.

    ``words[i]`` is the big-endian 64-bit word at byte offset ``i``.
    """
    shifted = words[positions >> 3] << (positions & 7).astype(np.uint64, copy=False)
    return shifted >> np.uint64(64 - width)


def decode_code_window(
    tables: DecodeTables,
    payload: bytes,
    n_samples: int,
    bit_length: int | None = None,
) -> np.ndarray:
    """Decode one window's payload; the B-bit codes, shape ``(n_samples,)``.

    Equal to the per-bit decode: the first ``bit_length`` bits (all of
    ``payload`` when ``None``) are the stream; running out of them raises
    ``EOFError``, ``Lmax`` bits that start no codeword raise
    ``ValueError``, as do zero runs that overshoot the window.
    """
    limit = len(payload) * 8 if bit_length is None else bit_length
    if not 0 <= limit <= len(payload) * 8:
        raise ValueError("bit_length exceeds the buffer size")
    first_bits = tables.resolution_bits
    if limit < first_bits:
        raise EOFError("bitstream exhausted")
    padded = bytes(payload) + bytes(8)
    words = np.ndarray(
        shape=(len(payload) + 1,), dtype=">u8", buffer=padded, strides=(1,)
    )
    # One peek per bit position from the first token to the end of the
    # stream inclusive; bits past the end never complete a codeword that
    # the walk below accepts, so their content does not matter.
    positions = np.arange(first_bits, limit + 1, dtype=np.int64)
    interval = np.searchsorted(
        tables.starts, _peek(words, positions, tables.peek_bits), side="right"
    ) - 1
    steps = tables.steps[interval].tolist()
    samples = tables.samples[interval].tolist()

    end = limit - first_bits
    needed = n_samples - 1
    produced = pos = 0
    token_pos = []
    while produced < needed:
        step = steps[pos]
        if step == 0 or pos + step > end:
            if step == 0 and end - pos >= tables.peek_bits:
                raise ValueError("invalid bitstream: no codeword matched")
            raise EOFError("bitstream exhausted")
        token_pos.append(pos)
        produced += samples[pos]
        pos += step
    if produced != needed:
        raise ValueError("corrupt payload: run tokens overshoot the window")

    first = int(words[0]) >> (64 - first_bits)
    tokens = interval[token_pos]
    diffs = tables.values[tokens]
    escaped = tables.escape[tokens]
    if escaped.any():
        field_pos = positions[token_pos][escaped] + (
            tables.steps[tokens[escaped]] - tables.escape_bits
        )
        fields = _peek(words, field_pos, tables.escape_bits).astype(np.int64, copy=False)
        diffs[escaped] = fields - (1 << (tables.escape_bits - 1))
    return difference_decode(first, np.repeat(diffs, tables.samples[tokens]))
