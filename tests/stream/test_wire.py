"""Fuzz tests of the length-prefixed wire framing (repro.stream.wire).

Two properties, pinned under Hypothesis:

* reassembly is chunking-invariant — any re-chunking of an encoded
  frame sequence (including byte-at-a-time delivery) yields
  byte-identical frames in order;
* damage is loud — truncated tails and corrupted bytes (length headers
  included) raise :class:`WireError`; a damaged stream never silently
  yields a wrong frame.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packets import WindowPacket
from repro.stream.ingest import StreamFrame
from repro.stream.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    FrameAssembler,
    WireError,
    decode_frame_body,
    encode_frame,
)

#: Offline shared state for every stream in these tests.
BITS = 12


@st.composite
def frames(draw) -> StreamFrame:
    """One arbitrary (but valid) transmit frame."""
    m = draw(st.integers(min_value=1, max_value=10))
    codes = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << BITS) - 1),
                min_size=m,
                max_size=m,
            )
        ),
        dtype=np.int64,
    )
    payload_bits = draw(st.integers(min_value=0, max_value=48))
    payload = draw(
        st.binary(
            min_size=(payload_bits + 7) // 8, max_size=(payload_bits + 7) // 8
        )
    )
    packet = WindowPacket(
        window_index=draw(st.integers(min_value=0, max_value=2**20)),
        n=draw(st.integers(min_value=1, max_value=512)),
        measurement_codes=codes,
        measurement_bits=BITS,
        lowres_payload=payload,
        lowres_bit_length=payload_bits,
    )
    reference = None
    if draw(st.booleans()):
        size = draw(st.integers(min_value=0, max_value=16))
        reference = np.array(
            draw(
                st.lists(
                    st.integers(min_value=-(2**31), max_value=2**31 - 1),
                    min_size=size,
                    max_size=size,
                )
            ),
            dtype=np.int64,
        )
    return StreamFrame(
        patient_id=draw(st.text(min_size=1, max_size=8)),
        packet=packet,
        crc=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        reference=reference,
    )


def _chunk(blob: bytes, cuts) -> list:
    """Split ``blob`` at the given sorted offsets."""
    edges = [0] + sorted(set(cuts)) + [len(blob)]
    return [blob[a:b] for a, b in zip(edges, edges[1:])]


def _assert_frames_equal(got: StreamFrame, want: StreamFrame) -> None:
    assert got.patient_id == want.patient_id
    assert got.crc == want.crc
    # Byte-identity of the on-air packet is the contract that matters.
    assert got.packet.to_bytes() == want.packet.to_bytes()
    assert got.packet.window_index == want.packet.window_index
    assert got.packet.n == want.packet.n
    if want.reference is None:
        assert got.reference is None
    else:
        assert got.reference is not None
        assert np.array_equal(got.reference, want.reference)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        frame_list=st.lists(frames(), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_any_chunking_reassembles_identically(self, frame_list, data):
        blob = b"".join(encode_frame(f) for f in frame_list)
        cuts = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(blob)), max_size=12)
        )
        assembler = FrameAssembler(BITS)
        decoded = []
        for chunk in _chunk(blob, cuts):
            decoded.extend(assembler.feed(chunk))
        assembler.close()
        assert len(decoded) == len(frame_list)
        for got, want in zip(decoded, frame_list):
            _assert_frames_equal(got, want)
        assert assembler.frames_out == len(frame_list)
        assert assembler.bytes_in == len(blob)
        assert assembler.pending_bytes == 0

    @settings(max_examples=25, deadline=None)
    @given(frame=frames())
    def test_byte_at_a_time(self, frame):
        blob = encode_frame(frame)
        assembler = FrameAssembler(BITS)
        decoded = []
        for i in range(len(blob)):
            decoded.extend(assembler.feed(blob[i : i + 1]))
        assembler.close()
        assert len(decoded) == 1
        _assert_frames_equal(decoded[0], frame)

    @settings(max_examples=40, deadline=None)
    @given(frame_list=st.lists(frames(), min_size=1, max_size=3), data=st.data())
    def test_truncated_tail_is_loud(self, frame_list, data):
        """A stream cut anywhere yields only whole frames, then an error."""
        encoded = [encode_frame(f) for f in frame_list]
        blob = b"".join(encoded)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        boundaries = {0}
        offset = 0
        for part in encoded:
            offset += len(part)
            boundaries.add(offset)
        assembler = FrameAssembler(BITS)
        decoded = assembler.feed(blob[:cut])
        whole = sum(1 for b in sorted(boundaries) if b <= cut) - 1
        assert len(decoded) == whole
        if cut in boundaries:
            assembler.close()  # clean boundary: a short stream, not damage
        else:
            with pytest.raises(WireError):
                assembler.close()

    @settings(max_examples=60, deadline=None)
    @given(frame_list=st.lists(frames(), min_size=1, max_size=3), data=st.data())
    def test_corrupted_byte_is_loud(self, frame_list, data):
        """Any flipped byte — length header included — raises WireError."""
        blob = bytearray(b"".join(encode_frame(f) for f in frame_list))
        pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        mask = data.draw(st.integers(min_value=1, max_value=255))
        blob[pos] ^= mask
        assembler = FrameAssembler(BITS)
        with pytest.raises(WireError):
            assembler.feed(bytes(blob))
            assembler.close()


class TestWireEdges:
    def _frame(self):
        packet = WindowPacket(
            window_index=0,
            n=16,
            measurement_codes=np.arange(4),
            measurement_bits=BITS,
            lowres_payload=b"\xa5",
            lowres_bit_length=8,
        )
        return StreamFrame(patient_id="p0", packet=packet, crc=123)

    def test_unsupported_version_rejected(self):
        body = bytearray(encode_frame(self._frame())[8:])
        body[0] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_frame_body(bytes(body), BITS)

    def test_unknown_flags_rejected(self):
        body = bytearray(encode_frame(self._frame())[8:])
        body[1] |= 0x80
        with pytest.raises(WireError, match="flags"):
            decode_frame_body(bytes(body), BITS)

    def test_oversized_length_prefix_rejected_before_buffering(self):
        assembler = FrameAssembler(BITS, max_frame_bytes=64)
        bogus = (1 << 16).to_bytes(4, "big") + b"\x00" * 4
        with pytest.raises(WireError, match="frame bound"):
            assembler.feed(bogus)

    def test_default_bound_is_max_frame_bytes(self):
        assert FrameAssembler(BITS).max_frame_bytes == MAX_FRAME_BYTES

    def test_reference_must_be_integer_vector(self):
        frame = self._frame()
        bad = StreamFrame(
            patient_id=frame.patient_id,
            packet=frame.packet,
            crc=frame.crc,
            reference=np.array([0.5, 1.5]),
        )
        with pytest.raises(WireError, match="integer"):
            encode_frame(bad)

    @pytest.mark.parametrize("keep", [5, 12], ids=["mid-header", "no-codes"])
    def test_cut_packet_behind_good_crc_is_wire_error(self, keep):
        """A body whose CRC is good but whose packet bytes stop short (in
        the header, or right after it) is a :class:`WireError`, not the
        packet reader's bare ``EOFError``."""
        packet_bytes = self._frame().packet.to_bytes()[:keep]
        body = (
            struct.pack(">BBH", WIRE_VERSION, 0, 2)
            + b"p0"
            + struct.pack(">II", 123, len(packet_bytes))
            + packet_bytes
        )
        prefix = struct.pack(">II", len(body), zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(WireError, match="undecodable packet"):
            FrameAssembler(BITS).feed(prefix + body)

    def test_empty_feed_yields_nothing(self):
        assembler = FrameAssembler(BITS)
        assert assembler.feed(b"") == []
        assembler.close()
