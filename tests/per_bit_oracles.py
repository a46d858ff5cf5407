"""Bit-at-a-time reference versions of the encode and frame byte path.

The window encode, packet framing, link corruption and Huffman decoding
run on NumPy arrays in ``src/``.  These are the per-window, per-token and
per-bit loops they replaced, kept only so the differential tests can
assert that the array kernels produce the same bytes, the same values,
the same RNG draws and the same exception classes (``docs/encoding.md``
states the contract).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.coding.bitstream import BitReader, BitWriter
from repro.coding.codebook import ESCAPE, DifferenceCodebook
from repro.coding.differential import difference_decode, difference_encode
from repro.coding.huffman import HuffmanCodec, Symbol
from repro.coding.runlength import ZeroRun, tokenize_diffs
from repro.core.channel import LossyLink
from repro.core.frontend import HybridFrontEnd
from repro.core.packets import WindowPacket
from repro.devtools.contracts import check_dtype, check_shape
from repro.sensing.quantizers import requantize_codes


def encode_symbol(codec: HuffmanCodec, symbol: Symbol, writer: BitWriter) -> None:
    """Append one symbol's canonical codeword to ``writer``, bit by bit."""
    try:
        code, length = codec.codes[symbol]
    except KeyError:
        raise KeyError(f"symbol {symbol!r} not in codebook") from None
    writer.write_bits(code, length)


def codeword_table(codec: HuffmanCodec) -> Tuple[Dict, int]:
    """``{(code, length): symbol}`` and the longest code length."""
    table = {code: sym for sym, code in codec.codes.items()}
    return table, max(length for _, length in table)


def decode_symbol(
    codec: HuffmanCodec, reader: BitReader, codewords: Optional[Tuple[Dict, int]] = None
) -> Symbol:
    """Read one symbol: one bit at a time until a codeword matches.

    ``codewords`` is :func:`codeword_table` of ``codec``, when the caller
    decodes many symbols and builds it once.
    """
    table, max_length = codewords or codeword_table(codec)
    code = 0
    for length in range(1, max_length + 1):
        code = (code << 1) | reader.read_bit()
        sym = table.get((code, length))
        if sym is not None:
            return sym
    raise ValueError("invalid bitstream: no codeword matched")


def encode_window(book: DifferenceCodebook, codes: np.ndarray) -> Tuple[bytes, int]:
    """``DifferenceCodebook.encode_window`` one token at a time."""
    arr = np.asarray(codes)
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << book.resolution_bits)):
        raise ValueError(
            f"codes out of range for {book.resolution_bits}-bit resolution"
        )
    first, diffs = difference_encode(arr)
    if book.use_run_length:
        tokens: List = tokenize_diffs(diffs)
    else:
        tokens = [int(d) for d in diffs]
    writer = BitWriter()
    writer.write_uint(first, book.resolution_bits)
    for tok in tokens:
        if tok in book.codec.codes:
            encode_symbol(book.codec, tok, writer)
        else:
            encode_symbol(book.codec, ESCAPE, writer)
            offset = 1 << (book.escape_payload_bits - 1)
            writer.write_uint(tok + offset, book.escape_payload_bits)
    return writer.getvalue(), writer.bit_length


def measure(frontend, codes: np.ndarray) -> np.ndarray:
    """One window's measurement codes: validate, one GEMV, quantize."""
    cs = frontend._cs
    config = frontend.config
    arr = check_shape(codes, (config.window_len,), name="codes")
    arr = check_dtype(arr, "integer", name="codes")
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << config.acquisition_bits)):
        raise ValueError(
            f"codes out of range for {config.acquisition_bits}-bit acquisition"
        )
    return cs.quantizer.quantize(cs.phi @ (arr.astype(float) - cs.center))


def process_window(frontend, codes: np.ndarray, window_index: int = 0) -> WindowPacket:
    """``process_window`` of either front-end: GEMV measure, per-token code."""
    y_codes = measure(frontend, codes)
    payload, bit_length = b"", 0
    if isinstance(frontend, HybridFrontEnd):
        config = frontend.config
        lowres = requantize_codes(
            np.asarray(codes), config.acquisition_bits, config.lowres_bits
        )
        payload, bit_length = encode_window(frontend.codebook, lowres)
    return WindowPacket(
        window_index=window_index,
        n=frontend.config.window_len,
        measurement_codes=y_codes,
        measurement_bits=frontend.config.measurement_bits,
        lowres_payload=payload,
        lowres_bit_length=bit_length,
    )


def packet_to_bytes(packet: WindowPacket) -> bytes:
    """``WindowPacket.to_bytes`` one field and one payload bit at a time."""
    writer = BitWriter()
    writer.write_uint(packet.window_index, 32)
    writer.write_uint(packet.n, 16)
    writer.write_uint(packet.m, 16)
    writer.write_uint(packet.lowres_bit_length, 32)
    for code in packet.measurement_codes:
        writer.write_uint(int(code), packet.measurement_bits)
    reader = BitReader(packet.lowres_payload, packet.lowres_bit_length)
    for _ in range(packet.lowres_bit_length):
        writer.write_bit(reader.read_bit())
    return writer.getvalue()


def packet_from_bytes(data: bytes, measurement_bits: int) -> WindowPacket:
    """``WindowPacket.from_bytes`` one field and one payload bit at a time."""
    reader = BitReader(data)
    window_index = reader.read_uint(32)
    n = reader.read_uint(16)
    m = reader.read_uint(16)
    lowres_bit_length = reader.read_uint(32)
    codes = np.array(
        [reader.read_uint(measurement_bits) for _ in range(m)], dtype=np.int64
    )
    payload_writer = BitWriter()
    for _ in range(lowres_bit_length):
        payload_writer.write_bit(reader.read_bit())
    return WindowPacket(
        window_index=window_index,
        n=n,
        measurement_codes=codes,
        measurement_bits=measurement_bits,
        lowres_payload=payload_writer.getvalue(),
        lowres_bit_length=lowres_bit_length,
    )


def _flip_bits(link: LossyLink, data: bytes, n_bits: int) -> bytes:
    if not data or link.bit_error_rate == 0.0:
        return data
    arr = np.frombuffer(data, dtype=np.uint8).copy()
    total_bits = min(n_bits, arr.size * 8)
    flips = link._rng.uniform(size=total_bits) < link.bit_error_rate
    for pos in np.nonzero(flips)[0]:
        arr[pos // 8] ^= 1 << (7 - pos % 8)
    return arr.tobytes()


def link_transmit(link: LossyLink, packet: WindowPacket) -> Optional[WindowPacket]:
    """``LossyLink.transmit`` flipping and re-reading codes bit by bit.

    Draws from ``link``'s own generator in the production order.
    """
    if link._rng.uniform() < link.packet_erasure_rate:
        return None
    if link.bit_error_rate == 0.0:
        return packet
    writer = BitWriter()
    for code in packet.measurement_codes:
        writer.write_uint(int(code), packet.measurement_bits)
    code_bytes = _flip_bits(link, writer.getvalue(), writer.bit_length)
    reader = BitReader(code_bytes, writer.bit_length)
    codes = np.array(
        [reader.read_uint(packet.measurement_bits) for _ in range(packet.m)],
        dtype=np.int64,
    )
    payload = _flip_bits(link, packet.lowres_payload, packet.lowres_bit_length)
    return WindowPacket(
        window_index=packet.window_index,
        n=packet.n,
        measurement_codes=codes,
        measurement_bits=packet.measurement_bits,
        lowres_payload=payload,
        lowres_bit_length=packet.lowres_bit_length,
    )


def decode_window(
    book: DifferenceCodebook,
    payload: bytes,
    n_samples: int,
    bit_length: int | None = None,
) -> np.ndarray:
    """``DifferenceCodebook.decode_window`` one codeword bit at a time."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    reader = BitReader(payload, bit_length)
    first = reader.read_uint(book.resolution_bits)
    codewords = codeword_table(book.codec)
    diffs: List[int] = []
    needed = n_samples - 1
    while len(diffs) < needed:
        sym = decode_symbol(book.codec, reader, codewords)
        if sym == ESCAPE:
            field = reader.read_uint(book.escape_payload_bits)
            diffs.append(field - (1 << (book.escape_payload_bits - 1)))
        elif isinstance(sym, ZeroRun):
            diffs.extend([0] * sym.length)
        else:
            diffs.append(int(sym))
    if len(diffs) != needed:
        raise ValueError("corrupt payload: run tokens overshoot the window")
    return difference_decode(first, np.asarray(diffs, dtype=np.int64))
