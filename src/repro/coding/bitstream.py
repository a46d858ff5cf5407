"""Bit-level I/O used by the entropy coder and the transmit framing.

Minimal MSB-first bit writer/reader over a growable byte buffer, with the
same bit order as the entropy coder's packed payloads
(:mod:`repro.coding.vectorized`).

Both classes have a bulk field path next to the bit-at-a-time one:
:meth:`BitWriter.write_bits_array` (array expansion + ``np.packbits``)
and its inverse :meth:`BitReader.read_bits_array` (``np.unpackbits`` +
one weighted reduction).  Packet framing
(:meth:`repro.core.packets.WindowPacket.to_bytes` / ``from_bytes``) and
the lossy link's code corruption run on them; the per-bit methods are
the reference semantics, and the two paths produce identical buffers
and values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader"]


class BitWriter:
    """Accumulate bits MSB-first and render them as bytes.

    Example
    -------
    >>> w = BitWriter()
    >>> w.write_bits(0b101, 3)
    >>> w.write_uint(7, 5)
    >>> w.bit_length
    8
    >>> w.getvalue()
    b'\\xa7'
    """

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bitpos = 0  # bits used in the current (last) byte

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        if not self._bytes:
            return 0
        return (len(self._bytes) - 1) * 8 + (self._bitpos or 8)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if self._bitpos in (0, 8):
            self._bytes.append(0)
            self._bitpos = 0
        self._bytes[-1] |= bit << (7 - self._bitpos)
        self._bitpos += 1

    def write_bits(self, value: int, n_bits: int) -> None:
        """Append the ``n_bits`` least-significant bits of ``value``,
        most-significant first."""
        if n_bits < 0:
            raise ValueError("n_bits cannot be negative")
        if value < 0 or (n_bits < value.bit_length()):
            raise ValueError(
                f"value {value} does not fit in {n_bits} unsigned bits"
            )
        for shift in range(n_bits - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    # Alias with self-documenting name for fixed-width fields.
    write_uint = write_bits

    def write_bits_array(self, values, lengths) -> None:
        """Bulk equivalent of ``write_bits(values[i], lengths[i])`` per entry.

        ``values`` and ``lengths`` are equal-length 1-D integer sequences;
        the resulting buffer is identical to calling :meth:`write_bits` in
        a loop, but the bits are expanded and packed as arrays.  Fields
        wider than 64 bits fall back to the scalar path.
        """
        lengths_arr = np.asarray(lengths, dtype=np.int64)
        values_arr = np.asarray(values)
        if lengths_arr.ndim != 1 or values_arr.shape != lengths_arr.shape:
            raise ValueError("values and lengths must be equal-length 1-D")
        if lengths_arr.size == 0:
            return
        if values_arr.dtype.kind not in "iu":
            raise ValueError("values must be integers")
        if np.any(lengths_arr < 0):
            raise ValueError("n_bits cannot be negative")
        if values_arr.dtype.kind == "i" and np.any(values_arr < 0):
            bad = int(values_arr[values_arr < 0][0])
            raise ValueError(f"value {bad} does not fit in unsigned bits")
        if np.any(lengths_arr > 64):
            for value, n_bits in zip(values_arr.tolist(), lengths_arr.tolist()):
                self.write_bits(int(value), int(n_bits))
            return
        values_u = values_arr.astype(np.uint64, copy=False)
        narrow = lengths_arr < 64  # 64-bit fields hold any uint64
        overflow = np.zeros(lengths_arr.shape, dtype=bool)
        overflow[narrow] = (
            values_u[narrow] >> lengths_arr[narrow].astype(np.uint64, copy=False)
        ) != 0
        if np.any(overflow):
            idx = int(np.flatnonzero(overflow)[0])
            raise ValueError(
                f"value {int(values_arr[idx])} does not fit in "
                f"{int(lengths_arr[idx])} unsigned bits"
            )
        keep = lengths_arr > 0
        vals, lens = values_u[keep], lengths_arr[keep]
        total = int(lens.sum())
        if total == 0:
            return
        repeated_vals = np.repeat(vals, lens)
        repeated_lens = np.repeat(lens, lens)
        offsets = np.cumsum(lens) - lens
        intra = np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
        shifts = (repeated_lens - 1 - intra).astype(np.uint64, copy=False)
        self._append_bit_array(
            ((repeated_vals >> shifts) & np.uint64(1)).astype(
                np.uint8, copy=False
            )
        )

    def _append_bit_array(self, bits: np.ndarray) -> None:
        """Append a non-empty uint8 bit array, merging any dangling byte."""
        if self._bytes and self._bitpos not in (0, 8):
            # Re-pack the partial last byte together with the new bits so
            # packbits sees one contiguous MSB-first stream.
            last = self._bytes.pop()
            prefix = np.unpackbits(np.frombuffer(bytes([last]), dtype=np.uint8))
            bits = np.concatenate([prefix[: self._bitpos], bits])
        self._bytes.extend(np.packbits(bits).tobytes())
        self._bitpos = (bits.size % 8) or 8

    def getvalue(self) -> bytes:
        """The written bits, zero-padded to a whole number of bytes."""
        return bytes(self._bytes)


class BitReader:
    """Sequential MSB-first reader over a byte string.

    Tracks its own cursor; reading past the end raises ``EOFError`` so
    framing bugs fail loudly instead of decoding garbage.
    """

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = bytes(data)
        self._pos = 0
        max_bits = len(self._data) * 8
        if bit_length is None:
            self._limit = max_bits
        else:
            if not 0 <= bit_length <= max_bits:
                raise ValueError("bit_length exceeds the buffer size")
            self._limit = bit_length

    @property
    def bits_remaining(self) -> int:
        """Bits left before the logical end of stream."""
        return self._limit - self._pos

    def read_bit(self) -> int:
        """Read the next bit."""
        if self._pos >= self._limit:
            raise EOFError("bitstream exhausted")
        byte = self._data[self._pos // 8]
        bit = (byte >> (7 - self._pos % 8)) & 1
        self._pos += 1
        return bit

    def read_bits(self, n_bits: int) -> int:
        """Read ``n_bits`` as an unsigned integer, MSB first."""
        if n_bits < 0:
            raise ValueError("n_bits cannot be negative")
        value = 0
        for _ in range(n_bits):
            value = (value << 1) | self.read_bit()
        return value

    # Alias matching BitWriter.write_uint.
    read_uint = read_bits

    def read_bits_array(self, lengths) -> np.ndarray:
        """Bulk equivalent of ``[read_bits(n) for n in lengths]``.

        Returns the fields as a ``uint64`` array of ``len(lengths)``.
        Fields are at most 64 bits wide.  A read past the logical end
        raises ``EOFError`` (as the per-bit loop does) and leaves the
        cursor where it was.
        """
        lengths_arr = np.asarray(lengths, dtype=np.int64)
        if lengths_arr.ndim != 1:
            raise ValueError("lengths must be 1-D")
        if np.any(lengths_arr < 0):
            raise ValueError("n_bits cannot be negative")
        if np.any(lengths_arr > 64):
            raise ValueError("bulk fields are at most 64 bits wide")
        total = int(lengths_arr.sum())
        if total > self.bits_remaining:
            raise EOFError("bitstream exhausted")
        values = np.zeros(lengths_arr.size, dtype=np.uint64)
        if total == 0:
            return values
        first_byte, skip = divmod(self._pos, 8)
        span = np.frombuffer(
            self._data, dtype=np.uint8,
            count=(skip + total + 7) // 8, offset=first_byte,
        )
        bits = np.unpackbits(span)[skip : skip + total].astype(np.uint64, copy=False)
        self._pos += total
        keep = lengths_arr > 0
        lens = lengths_arr[keep]
        offsets = np.cumsum(lens) - lens
        intra = np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
        bits <<= (np.repeat(lens, lens) - 1 - intra).astype(np.uint64, copy=False)
        values[keep] = np.add.reduceat(bits, offsets)
        return values
