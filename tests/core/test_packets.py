"""Tests of the transmit frame format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packets import HEADER_BITS, WindowPacket, split_stream
from tests.per_bit_oracles import packet_from_bytes, packet_to_bytes


def _packet(m=8, bits=12, payload=b"\xde\xad", payload_bits=15, index=3, n=128):
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 1 << bits, size=m)
    return WindowPacket(
        window_index=index,
        n=n,
        measurement_codes=codes,
        measurement_bits=bits,
        lowres_payload=payload,
        lowres_bit_length=payload_bits,
    )


class TestPacketFields:
    def test_bit_accounting(self):
        p = _packet()
        assert p.cs_bits == 8 * 12
        assert p.total_bits == HEADER_BITS + 96 + 15

    def test_budget(self):
        p = _packet()
        budget = p.budget()
        assert budget.n_samples == 128
        assert budget.original_bits == 128 * 12
        assert budget.cs_bits == 96
        assert budget.header_bits == HEADER_BITS

    def test_code_range_validated(self):
        with pytest.raises(ValueError):
            WindowPacket(
                window_index=0, n=4,
                measurement_codes=np.array([4096]),
                measurement_bits=12,
                lowres_payload=b"", lowres_bit_length=0,
            )

    def test_float_codes_rejected(self):
        with pytest.raises(TypeError):
            WindowPacket(
                window_index=0, n=4,
                measurement_codes=np.array([1.5]),
                measurement_bits=12,
                lowres_payload=b"", lowres_bit_length=0,
            )

    def test_payload_length_validated(self):
        with pytest.raises(ValueError):
            WindowPacket(
                window_index=0, n=4,
                measurement_codes=np.array([1]),
                measurement_bits=12,
                lowres_payload=b"\x00", lowres_bit_length=9,
            )


class TestSerialization:
    def test_roundtrip(self):
        p = _packet()
        q = WindowPacket.from_bytes(p.to_bytes(), measurement_bits=12)
        assert q.window_index == p.window_index
        assert q.n == p.n
        assert np.array_equal(q.measurement_codes, p.measurement_codes)
        assert q.lowres_bit_length == p.lowres_bit_length
        # Payload bits identical (trailing pad bits may differ in length).
        assert q.to_bytes() == p.to_bytes()

    def test_empty_payload_roundtrip(self):
        p = _packet(payload=b"", payload_bits=0)
        q = WindowPacket.from_bytes(p.to_bytes(), measurement_bits=12)
        assert q.lowres_bit_length == 0

    def test_byte_length_matches_bit_length(self):
        p = _packet()
        assert len(p.to_bytes()) == (p.total_bits + 7) // 8

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 40),
        bits=st.integers(4, 16),
        payload_bits=st.integers(0, 64),
        index=st.integers(0, 2**31),
    )
    def test_roundtrip_property(self, m, bits, payload_bits, index):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 1 << bits, size=m)
        payload = bytes(rng.integers(0, 256, size=(payload_bits + 7) // 8))
        p = WindowPacket(
            window_index=index, n=256,
            measurement_codes=codes, measurement_bits=bits,
            lowres_payload=payload, lowres_bit_length=payload_bits,
        )
        q = WindowPacket.from_bytes(p.to_bytes(), measurement_bits=bits)
        assert np.array_equal(q.measurement_codes, codes)
        assert q.window_index == index

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4096),
        m=st.integers(1, 96),
        bits=st.integers(1, 16),
        payload_bits=st.integers(0, 512),
        index=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**16),
    )
    def test_roundtrip_fuzz_full_frame(self, n, m, bits, payload_bits,
                                       index, seed):
        # Full-frame fuzz: every header field, the code vector and the
        # payload bits must survive to_bytes -> from_bytes byte-exactly.
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 1 << bits, size=m)
        payload = bytes(rng.integers(0, 256, size=(payload_bits + 7) // 8))
        p = WindowPacket(
            window_index=index, n=n,
            measurement_codes=codes, measurement_bits=bits,
            lowres_payload=payload, lowres_bit_length=payload_bits,
        )
        q = WindowPacket.from_bytes(p.to_bytes(), measurement_bits=bits)
        assert q.window_index == index
        assert q.n == n
        assert q.measurement_bits == bits
        assert q.lowres_bit_length == payload_bits
        assert np.array_equal(q.measurement_codes, codes)
        assert q.to_bytes() == p.to_bytes()
        assert len(p.to_bytes()) == (p.total_bits + 7) // 8


class TestSplitStream:
    def test_back_to_back_frames(self):
        packets = [_packet(index=i, payload_bits=7 + i) for i in range(4)]
        stream = b"".join(p.to_bytes() for p in packets)
        parsed = split_stream(stream, measurement_bits=12, n_packets=4)
        assert [p.window_index for p in parsed] == [0, 1, 2, 3]
        assert [p.lowres_bit_length for p in parsed] == [7, 8, 9, 10]


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raised", exception class)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return "raised", type(exc)


def _fields(packet):
    return (
        packet.window_index,
        packet.n,
        packet.measurement_codes.tolist(),
        packet.measurement_bits,
        packet.lowres_payload,
        packet.lowres_bit_length,
    )


def _parse_outcome(fn, data, bits):
    kind, value = _outcome(fn, data, bits)
    return (kind, _fields(value)) if kind == "ok" else (kind, value)


class TestPerBitOracle:
    """The array framing against the per-bit loops it replaced."""

    def _random_packet(self, rng):
        m = int(rng.integers(0, 100))
        bits = int(rng.integers(1, 17))
        payload_bits = int(rng.choice([0, 1, 7, 8, 9, rng.integers(0, 700)]))
        # Spare bytes and set pad bits past the bit length are legal and
        # must not reach the wire.
        spare = int(rng.integers(0, 3))
        payload = rng.integers(0, 256, size=(payload_bits + 7) // 8 + spare)
        return WindowPacket(
            window_index=int(rng.integers(0, 2**32)),
            n=int(rng.integers(1, 2**16)),
            measurement_codes=rng.integers(0, 1 << bits, size=m),
            measurement_bits=bits,
            lowres_payload=bytes(payload.astype(np.uint8)),
            lowres_bit_length=payload_bits,
        )

    def test_frames_and_parses_match(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            packet = self._random_packet(rng)
            data = packet.to_bytes()
            assert data == packet_to_bytes(packet)
            bits = packet.measurement_bits
            assert _fields(WindowPacket.from_bytes(data, bits)) == _fields(
                packet_from_bytes(data, bits)
            )
            # Trailing bytes after a frame are ignored alike.
            tail = data + bytes(rng.integers(0, 256, size=3).astype(np.uint8))
            assert _parse_outcome(WindowPacket.from_bytes, tail, bits) == (
                _parse_outcome(packet_from_bytes, tail, bits)
            )

    def test_truncated_frames_raise_alike(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            packet = self._random_packet(rng)
            data = packet.to_bytes()
            for cut in range(len(data)):
                new = _parse_outcome(
                    WindowPacket.from_bytes, data[:cut], packet.measurement_bits
                )
                assert new == _parse_outcome(
                    packet_from_bytes, data[:cut], packet.measurement_bits
                )
                assert new == ("raised", EOFError)

    def test_random_bytes_parse_alike(self):
        # Garbage headers: zero n, absurd m, oversized payload lengths.
        rng = np.random.default_rng(29)
        for size in list(range(0, 24)) + [40, 64, 200]:
            for _ in range(10):
                data = bytes(rng.integers(0, 256, size=size).astype(np.uint8))
                # Small headers so some frames parse completely.
                if size >= 12 and rng.uniform() < 0.5:
                    head = bytearray(data)
                    head[6:8] = int(rng.integers(0, 6)).to_bytes(2, "big")
                    head[8:12] = int(rng.integers(0, 40)).to_bytes(4, "big")
                    data = bytes(head)
                bits = int(rng.integers(1, 17))
                assert _parse_outcome(WindowPacket.from_bytes, data, bits) == (
                    _parse_outcome(packet_from_bytes, data, bits)
                )

    def test_huge_announced_payload_is_eof_not_allocation(self):
        # A damaged header may announce 2^32 - 1 payload bits; parsing
        # must stop at the end of the data, as the per-bit loop does.
        data = (
            (7).to_bytes(4, "big") + (64).to_bytes(2, "big")
            + (0).to_bytes(2, "big") + (2**32 - 1).to_bytes(4, "big") + b"\xff"
        )
        for parse in (WindowPacket.from_bytes, packet_from_bytes):
            with pytest.raises(EOFError):
                parse(data, 12)

    @pytest.mark.parametrize("bits", [0, -3])
    def test_bad_measurement_width_raises_alike(self, bits):
        data = _packet(m=4).to_bytes()
        new = _parse_outcome(WindowPacket.from_bytes, data, bits)
        assert new == _parse_outcome(packet_from_bytes, data, bits)
        assert new == ("raised", ValueError)

    @pytest.mark.parametrize(
        "field", [{"index": 2**32}, {"n": 2**16}, {"m": 2**16, "bits": 1}]
    )
    def test_out_of_range_header_raises_alike(self, field):
        packet = _packet(**field)
        new = _outcome(packet.to_bytes)
        assert new == _outcome(packet_to_bytes, packet)
        assert new == ("raised", ValueError)

    @pytest.mark.parametrize("code", [1 << 12, -1])
    def test_out_of_range_codes_raise_alike(self, code):
        # The code vector is a mutable array inside the frozen packet, so
        # a code can leave its range after construction.
        packet = _packet(m=4)
        packet.measurement_codes[2] = code
        new = _outcome(packet.to_bytes)
        assert new == _outcome(packet_to_bytes, packet)
        assert new == ("raised", ValueError)
