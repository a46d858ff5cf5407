"""Transmit frame format for one processing window (paper Fig. 1: both
paths' data are "transmitted at a fixed time window").

The node serializes, per window:

* a fixed header (window index, window length, measurement count, payload
  bit length),
* the CS path: ``m`` measurement codes at ``measurement_bits`` each,
* the low-res path: the Huffman-coded difference payload.

Everything the receiver additionally needs (chipping seed, codebook,
quantizer scaling) is part of the shared :class:`~repro.core.config.
FrontEndConfig`, exactly like the offline-agreed state of a real link.
Serialization is bit-exact and round-trips through :meth:`WindowPacket.
to_bytes` / :meth:`WindowPacket.from_bytes`; all compression ratios in the
experiments are measured on these frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.coding.bitstream import BitReader, BitWriter
from repro.metrics.compression import CompressionBudget, ORIGINAL_RESOLUTION_BITS

__all__ = ["WindowPacket", "HEADER_BITS"]

#: Fixed per-window header: index (32) + n (16) + m (16) + payload bits (32).
HEADER_BITS = 32 + 16 + 16 + 32


@dataclass(frozen=True)
class WindowPacket:
    """One window's transmitted data.

    Attributes
    ----------
    window_index:
        Sequence number of the window in the stream.
    n:
        Window length in Nyquist samples.
    measurement_codes:
        The ``m`` quantized CS measurements as unsigned ADC codes.
    measurement_bits:
        Bits per measurement code.
    lowres_payload:
        Huffman-coded low-resolution difference stream (byte-padded).
    lowres_bit_length:
        Exact number of meaningful bits in ``lowres_payload``.
    """

    window_index: int
    n: int
    measurement_codes: np.ndarray
    measurement_bits: int
    lowres_payload: bytes
    lowres_bit_length: int

    def __post_init__(self) -> None:
        codes = np.asarray(self.measurement_codes)
        if codes.ndim != 1:
            raise ValueError("measurement codes must be a vector")
        if not np.issubdtype(codes.dtype, np.integer):
            raise TypeError("measurement codes must be integers")
        if self.measurement_bits <= 0:
            raise ValueError("measurement_bits must be positive")
        if codes.size and (
            codes.min() < 0 or codes.max() >= (1 << self.measurement_bits)
        ):
            raise ValueError("measurement codes out of range")
        if self.window_index < 0 or self.n <= 0:
            raise ValueError("invalid header fields")
        if not 0 <= self.lowres_bit_length <= len(self.lowres_payload) * 8:
            raise ValueError("payload bit length outside the payload buffer")
        object.__setattr__(self, "measurement_codes", codes.astype(np.int64))

    @property
    def m(self) -> int:
        """Number of CS measurements in the frame."""
        return int(self.measurement_codes.size)

    @property
    def cs_bits(self) -> int:
        """Bits spent on the CS path."""
        return self.m * self.measurement_bits

    @property
    def total_bits(self) -> int:
        """Every transmitted bit: header + CS codes + low-res payload."""
        return HEADER_BITS + self.cs_bits + self.lowres_bit_length

    def budget(
        self, original_bits_per_sample: int = ORIGINAL_RESOLUTION_BITS
    ) -> CompressionBudget:
        """Full bit accounting of this window against the original signal."""
        return CompressionBudget(
            n_samples=self.n,
            original_bits=self.n * original_bits_per_sample,
            cs_bits=self.cs_bits,
            lowres_bits=self.lowres_bit_length,
            header_bits=HEADER_BITS,
        )

    def to_bytes(self) -> bytes:
        """Serialize to the on-air byte representation.

        Header, codes and payload go through one
        :meth:`~repro.coding.bitstream.BitWriter.write_bits_array` call;
        the payload travels as byte-wide fields.
        """
        payload_widths = _payload_widths(self.lowres_bit_length)
        payload = np.frombuffer(
            self.lowres_payload, dtype=np.uint8, count=payload_widths.size
        ).astype(np.int64)
        if payload.size:
            payload[-1] >>= 8 - payload_widths[-1]
        header = [self.window_index, self.n, self.m, self.lowres_bit_length]
        writer = BitWriter()
        writer.write_bits_array(
            np.concatenate([header, self.measurement_codes, payload]),
            np.concatenate([
                _HEADER_WIDTHS,
                np.full(self.m, self.measurement_bits, dtype=np.int64),
                payload_widths,
            ]),
        )
        return writer.getvalue()

    @staticmethod
    def from_bytes(data: bytes, measurement_bits: int) -> "WindowPacket":
        """Parse a frame produced by :meth:`to_bytes`.

        ``measurement_bits`` comes from the shared config (it is offline
        state, not per-frame signalling).  A frame cut short raises
        ``EOFError``.
        """
        window_index, n, m, lowres_bit_length = _read_header(data)
        reader = BitReader(data[HEADER_BITS // 8 :])
        codes = reader.read_bits_array(
            np.full(m, measurement_bits, dtype=np.int64)
        ).astype(np.int64)
        # A damaged header may announce up to 2^32 payload bits: check
        # before sizing anything by it.
        if lowres_bit_length > reader.bits_remaining:
            raise EOFError("bitstream exhausted")
        payload_widths = _payload_widths(lowres_bit_length)
        payload = reader.read_bits_array(payload_widths).astype(np.uint8)
        if payload.size:
            payload[-1] <<= 8 - payload_widths[-1]
        return WindowPacket(
            window_index=window_index,
            n=n,
            measurement_codes=codes,
            measurement_bits=measurement_bits,
            lowres_payload=payload.tobytes(),
            lowres_bit_length=lowres_bit_length,
        )


#: Bit widths of the header fields: index, n, m, payload bit length.
_HEADER_WIDTHS = np.array([32, 16, 16, 32], dtype=np.int64)


def _read_header(data: bytes) -> Tuple[int, int, int, int]:
    """The four header fields ``(window_index, n, m, payload bits)``.

    The header is the frame's first ``HEADER_BITS // 8`` bytes; fewer
    raise ``EOFError`` like any read past the end of a frame.
    """
    if len(data) < HEADER_BITS // 8:
        raise EOFError("bitstream exhausted")
    head = int.from_bytes(data[: HEADER_BITS // 8], "big")
    return head >> 64, (head >> 48) & 0xFFFF, (head >> 32) & 0xFFFF, head & 0xFFFFFFFF


def _payload_widths(bit_length: int) -> np.ndarray:
    """Field widths that carry ``bit_length`` payload bits bytewise:
    whole bytes, then the ``bit_length % 8`` leading bits of the last."""
    full, rem = divmod(bit_length, 8)
    widths = np.full(full + (rem > 0), 8, dtype=np.int64)
    if rem:
        widths[-1] = rem
    return widths


def split_stream(
    data: bytes, measurement_bits: int, n_packets: int
) -> Tuple[WindowPacket, ...]:
    """Parse ``n_packets`` back-to-back byte-aligned frames.

    Each frame's byte length is recomputed from its header, mirroring a
    receiver draining a radio FIFO.
    """
    packets = []
    offset = 0
    for _ in range(n_packets):
        _, _, m, lowres_bits = _read_header(data[offset : offset + HEADER_BITS // 8])
        frame_bits = HEADER_BITS + m * measurement_bits + lowres_bits
        frame_bytes = (frame_bits + 7) // 8
        packets.append(
            WindowPacket.from_bytes(
                data[offset : offset + frame_bytes], measurement_bits
            )
        )
        offset += frame_bytes
    return tuple(packets)
