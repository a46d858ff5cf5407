"""Bit-at-a-time reference versions of the frame byte path.

Packet framing, link corruption and Huffman decoding run on NumPy bit
arrays in ``src/``.  These are the per-bit loops they replaced, kept only
so the differential tests can assert that the array kernels produce the
same bytes, the same values, the same RNG draws and the same exception
classes (``docs/encoding.md`` states the contract).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.coding.bitstream import BitReader, BitWriter
from repro.coding.codebook import ESCAPE, DifferenceCodebook
from repro.coding.differential import difference_decode
from repro.coding.runlength import ZeroRun
from repro.core.channel import LossyLink
from repro.core.packets import WindowPacket


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
    diffs: List[int] = []
    needed = n_samples - 1
    while len(diffs) < needed:
        sym = book.codec.decode_symbol(reader)
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
