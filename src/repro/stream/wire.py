"""Length-prefixed wire framing for :class:`~repro.stream.ingest.StreamFrame`.

The byte-stream ingress format of the sharded gateway: what a TCP
socket, a serial radio bridge, or an in-process byte channel carries
between a sensor fleet and a gateway shard.  A byte stream has no
message boundaries, so every frame is wrapped as::

    u32 body_length | u32 crc32(body) | body

with the body itself carrying a version tag, the routing key, the
link-layer CRC side channel, the on-air packet bytes
(:meth:`~repro.core.packets.WindowPacket.to_bytes` — already bit-exact),
and the optional telemetry reference window.  All integers big-endian.

Two properties the fuzz suite (``tests/stream/test_wire.py``) pins down:

* **reassembly is chunking-invariant** — a :class:`FrameAssembler` fed
  any re-chunking of a frame sequence yields byte-identical frames in
  order;
* **damage is loud** — a corrupted length prefix or body fails with
  :class:`WireError` (header CRC mismatch, bound violation, or a
  truncated tail reported at :meth:`FrameAssembler.close`); a damaged
  stream never silently splices two frames into one.

The prefix CRC is what makes a *corrupted length header* detectable at
all: a flipped length bit mis-slices the body, the body checksum then
disagrees, and the assembler refuses instead of resynchronizing onto
garbage.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional

import numpy as np

from repro.core.packets import WindowPacket
from repro.stream.ingest import StreamFrame

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "WireError",
    "encode_frame",
    "decode_frame_body",
    "FrameAssembler",
]

#: Wire format version stamped into (and checked out of) every body.
WIRE_VERSION = 1

#: Default per-frame size bound; a length prefix beyond this is treated
#: as corruption, not as an instruction to buffer without limit.
MAX_FRAME_BYTES = 1 << 20

_PREFIX = struct.Struct(">II")  # body length, crc32(body)
_FLAG_REFERENCE = 0x01


class WireError(ValueError):
    """A framing violation: corrupt header, damaged body, truncated tail."""


def _crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def encode_frame(frame: StreamFrame) -> bytes:
    """Serialize one frame to its prefixed wire bytes."""
    patient = frame.patient_id.encode("utf-8")
    if len(patient) > 0xFFFF:
        raise WireError("patient id too long for the wire format")
    packet_bytes = frame.packet.to_bytes()
    parts = [
        struct.pack(">BBH", WIRE_VERSION,
                    _FLAG_REFERENCE if frame.reference is not None else 0,
                    len(patient)),
        patient,
        struct.pack(">II", frame.crc & 0xFFFFFFFF, len(packet_bytes)),
        packet_bytes,
    ]
    if frame.reference is not None:
        ref = np.asarray(frame.reference)
        if ref.ndim != 1 or not np.issubdtype(ref.dtype, np.integer):
            raise WireError("reference must be a 1-D integer array")
        if ref.size and (
            int(ref.min()) < np.iinfo(np.int32).min
            or int(ref.max()) > np.iinfo(np.int32).max
        ):
            raise WireError("reference codes exceed the 32-bit wire range")
        parts.append(struct.pack(">I", ref.size))
        parts.append(ref.astype(">i4").tobytes())
    body = b"".join(parts)
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame body of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _PREFIX.pack(len(body), _crc32(body)) + body


class _BodyReader:
    """Cursor over one frame body; every read is bounds-checked."""

    def __init__(self, body: bytes) -> None:
        self._body = body
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._body):
            raise WireError("frame body truncated mid-field")
        out = self._body[self._pos : self._pos + n]
        self._pos += n
        return out

    def done(self) -> None:
        if self._pos != len(self._body):
            raise WireError(
                f"{len(self._body) - self._pos} trailing bytes in frame body"
            )


def decode_frame_body(body: bytes, measurement_bits: int) -> StreamFrame:
    """Parse one frame body (the bytes after the prefix) back to a frame.

    ``measurement_bits`` is offline shared state (from the link
    :class:`~repro.core.config.FrontEndConfig`), exactly as in
    :meth:`WindowPacket.from_bytes`.
    """
    reader = _BodyReader(body)
    version, flags, patient_len = struct.unpack(">BBH", reader.take(4))
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version}")
    if flags & ~_FLAG_REFERENCE:
        raise WireError(f"unknown wire flags 0x{flags:02x}")
    try:
        patient_id = reader.take(patient_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError("patient id is not valid UTF-8") from exc
    crc, packet_len = struct.unpack(">II", reader.take(8))
    packet_bytes = reader.take(packet_len)
    try:
        packet = WindowPacket.from_bytes(packet_bytes, measurement_bits)
    except (ValueError, TypeError, IndexError, EOFError) as exc:
        raise WireError(f"undecodable packet bytes: {exc}") from exc
    expected_bits = packet.total_bits
    if len(packet_bytes) != (expected_bits + 7) // 8:
        # from_bytes tolerates trailing slack the encoder never
        # produces; a length disagreement means spliced/damaged bytes.
        raise WireError("packet byte length disagrees with its header")
    reference: Optional[np.ndarray] = None
    if flags & _FLAG_REFERENCE:
        (ref_len,) = struct.unpack(">I", reader.take(4))
        reference = np.frombuffer(
            reader.take(4 * ref_len), dtype=">i4"
        ).astype(np.int64)
    reader.done()
    return StreamFrame(
        patient_id=patient_id, packet=packet, crc=crc, reference=reference
    )


class FrameAssembler:
    """Incremental decoder of a prefixed frame byte stream.

    Feed arbitrary byte chunks (:meth:`feed`) — window boundaries never
    have to align with chunk boundaries, mirroring the ingest framer —
    and collect completed frames.  Call :meth:`close` at end of stream:
    leftover buffered bytes mean the stream was cut mid-frame, which is
    an error, never a silently dropped suffix.

    Parameters
    ----------
    measurement_bits:
        Offline shared packet field width (from the link config).
    max_frame_bytes:
        Upper bound a length prefix may announce; beyond it the stream
        is declared corrupt immediately rather than buffered forever.
    """

    def __init__(
        self,
        measurement_bits: int,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if measurement_bits <= 0:
            raise ValueError("measurement_bits must be positive")
        if max_frame_bytes <= 0:
            raise ValueError("max_frame_bytes must be positive")
        self.measurement_bits = int(measurement_bits)
        self.max_frame_bytes = int(max_frame_bytes)
        self._buffer = bytearray()
        self.frames_out = 0
        self.bytes_in = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[StreamFrame]:
        """Absorb one chunk; return every frame it completed, in order."""
        self._buffer.extend(chunk)
        self.bytes_in += len(chunk)
        frames: List[StreamFrame] = []
        while len(self._buffer) >= _PREFIX.size:
            body_len, body_crc = _PREFIX.unpack_from(self._buffer)
            if body_len > self.max_frame_bytes:
                raise WireError(
                    f"length prefix {body_len} exceeds the "
                    f"{self.max_frame_bytes}-byte frame bound (corrupt header?)"
                )
            if len(self._buffer) < _PREFIX.size + body_len:
                break  # wait for the rest of this frame
            body = bytes(
                self._buffer[_PREFIX.size : _PREFIX.size + body_len]
            )
            if _crc32(body) != body_crc:
                raise WireError(
                    "frame body checksum mismatch (corrupt length header "
                    "or damaged body)"
                )
            frames.append(decode_frame_body(body, self.measurement_bits))
            del self._buffer[: _PREFIX.size + body_len]
            self.frames_out += 1
        return frames

    def close(self) -> None:
        """Assert the stream ended on a frame boundary.

        Raises :class:`WireError` when bytes are still buffered — a
        truncated tail is damage, not a clean end of stream.
        """
        if self._buffer:
            raise WireError(
                f"stream truncated: {len(self._buffer)} bytes of an "
                "incomplete frame at end of stream"
            )
