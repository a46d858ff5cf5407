"""Lossy-link simulation: bit errors and packet erasures.

A WBSN radio link drops and corrupts frames; a deployable front-end must
degrade gracefully.  The two packet fields fail very differently:

* a corrupted **CS measurement** adds bounded noise to ``y`` — convex
  recovery absorbs it through σ (and the hybrid's box caps the damage);
* a corrupted **Huffman payload** desynchronizes the variable-length
  decode for the rest of the window.

:class:`LossyLink` injects both kinds of impairment; :class:`RobustReceiver`
wraps :class:`~repro.core.receiver.HybridReceiver` with the standard
mitigations — payload CRC to detect low-res corruption and fall back to
normal-CS recovery for that window, and per-window independence so packet
erasures cost exactly one window (concealed by zero-order hold).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.coding.bitstream import BitReader, BitWriter
from repro.core.config import FrontEndConfig
from repro.core.packets import WindowPacket
from repro.core.receiver import HybridReceiver, WindowReconstruction
from repro.recovery.result import RecoveryResult

__all__ = [
    "LossyLink",
    "RobustReceiver",
    "payload_crc",
    "decode_robust",
    "conceal_codes",
]


def payload_crc(packet: WindowPacket) -> int:
    """CRC-32 of a packet's semantic content (codes + low-res payload)."""
    h = zlib.crc32(packet.measurement_codes.astype("<i8").tobytes())
    h = zlib.crc32(packet.lowres_payload, h)
    h = zlib.crc32(packet.lowres_bit_length.to_bytes(4, "little"), h)
    return h & 0xFFFFFFFF


def decode_robust(
    packet: WindowPacket,
    expected_crc: Optional[int],
    receiver: HybridReceiver,
) -> Tuple[WindowReconstruction, str]:
    """Stateless CRC-checked decode with CS-only fallback for one packet.

    The per-packet half of :class:`RobustReceiver`'s strategy — no
    concealment state, so it is safe to fan out across processes (the
    streaming gateway's recovery workers call it directly):

    * low-res payload present and CRC matching (or unchecked) → the
      receiver's method (Eq. 1 for ``"hybrid"``);
    * CRC mismatch or payload desync during decode → strip the payload
      and recover from the CS measurements alone.

    Returns ``(reconstruction, mode)`` with mode ``"hybrid"`` or
    ``"cs-fallback"``.  The stripped packet goes to the same receiver,
    which degrades it to the method's measurements-only sibling (plain
    BPDN for ``"hybrid"``, plain BSBL for ``"bsbl-dequant"``; see
    :meth:`repro.core.receiver.HybridReceiver.reconstruct`).
    """
    use_hybrid = packet.lowres_bit_length > 0
    if use_hybrid and expected_crc is not None:
        use_hybrid = payload_crc(packet) == expected_crc

    if use_hybrid:
        try:
            return receiver.reconstruct(packet), "hybrid"
        except (ValueError, EOFError):  # reprolint: disable=RL006 -- deliberate CS-only fallback on payload desync, mode is reported to the caller
            pass  # desynchronized payload: fall back below

    stripped = WindowPacket(
        window_index=packet.window_index,
        n=packet.n,
        measurement_codes=packet.measurement_codes,
        measurement_bits=packet.measurement_bits,
        lowres_payload=b"",
        lowres_bit_length=0,
    )
    return receiver.reconstruct(stripped), "cs-fallback"


def conceal_codes(
    config: FrontEndConfig, last_codes: Optional[np.ndarray]
) -> np.ndarray:
    """Zero-order-hold codes for a lost window, shape ``(window_len,)``.

    A copy of the previous window's codes, else the baseline at the
    acquisition mid-code for a cold start.
    """
    if last_codes is not None:
        return last_codes.copy()
    center = 1 << (config.acquisition_bits - 1)
    return np.full(config.window_len, float(center))


@dataclass
class LossyLink:
    """A bit-error / packet-erasure channel for :class:`WindowPacket`.

    Attributes
    ----------
    bit_error_rate:
        Probability of flipping each payload bit (applied independently
        to measurement codes and the low-res payload).
    packet_erasure_rate:
        Probability a whole packet never arrives.
    seed:
        Randomness seed (deterministic channel realizations).
    """

    bit_error_rate: float = 0.0
    packet_erasure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.bit_error_rate < 1.0:
            raise ValueError("bit_error_rate must be in [0, 1)")
        if not 0.0 <= self.packet_erasure_rate < 1.0:
            raise ValueError("packet_erasure_rate must be in [0, 1)")
        self._rng = np.random.default_rng(self.seed)

    def _flip_mask(self, n_bits: int) -> Optional[np.ndarray]:
        """Packed MSB-first mask of the bits that flip among ``n_bits``.

        One ``uniform`` draw per bit, so the generator advances exactly
        as a bit-by-bit loop would; ``None`` when no bit flips.
        """
        flips = self._rng.uniform(size=n_bits) < self.bit_error_rate
        return np.packbits(flips) if flips.any() else None

    def transmit(self, packet: WindowPacket) -> Optional[WindowPacket]:
        """Push one packet through the channel.

        Returns ``None`` for an erasure, otherwise a (possibly corrupted)
        packet; one that no bit error hit comes back as is.  The header
        is assumed protected (real links CRC and retransmit the few header
        bytes; it is the payload that is big).
        """
        if self._rng.uniform() < self.packet_erasure_rate:
            return None
        if self.bit_error_rate == 0.0:
            return packet

        # Bit errors hit the codes in their serialized form, then the
        # payload; an empty field draws nothing.
        codes = packet.measurement_codes
        code_mask = self._flip_mask(packet.cs_bits) if codes.size else None
        payload = packet.lowres_payload
        payload_mask = (
            self._flip_mask(packet.lowres_bit_length) if payload else None
        )
        if code_mask is None and payload_mask is None:
            return packet
        if code_mask is not None:
            widths = np.full(packet.m, packet.measurement_bits, dtype=np.int64)
            writer = BitWriter()
            writer.write_bits_array(codes, widths)
            flipped = np.frombuffer(writer.getvalue(), dtype=np.uint8) ^ code_mask
            reader = BitReader(flipped.tobytes(), packet.cs_bits)
            codes = reader.read_bits_array(widths).astype(np.int64)
        if payload_mask is not None:
            flipped = np.frombuffer(payload, dtype=np.uint8).copy()
            flipped[: payload_mask.size] ^= payload_mask
            payload = flipped.tobytes()
        return WindowPacket(
            window_index=packet.window_index,
            n=packet.n,
            measurement_codes=codes,
            measurement_bits=packet.measurement_bits,
            lowres_payload=payload,
            lowres_bit_length=packet.lowres_bit_length,
        )


class RobustReceiver:
    """A :class:`HybridReceiver` hardened for lossy links.

    Strategy per window:

    * **erasure** → conceal with the previous window's reconstruction
      (zero-order hold), or the configured baseline for the first window;
    * **low-res payload CRC mismatch** → decode the window from the CS
      measurements alone (normal-CS fallback: degraded, not corrupt);
    * **payload decode failure** (desync despite matching CRC, or absent
      CRC) → same CS-only fallback.
    """

    def __init__(self, config: FrontEndConfig, codebook) -> None:
        self.config = config
        self._receiver = HybridReceiver(config, codebook)
        self._last_codes: Optional[np.ndarray] = None

    def _conceal(self, window_index: int) -> WindowReconstruction:
        center = 1 << (self.config.acquisition_bits - 1)
        codes = conceal_codes(self.config, self._last_codes)
        dummy = RecoveryResult(
            alpha=np.zeros(self.config.window_len),
            x=codes - center,
            iterations=0,
            converged=False,
            residual_norm=float("nan"),
            objective=float("nan"),
            solver="concealment",
        )
        return WindowReconstruction(
            window_index=window_index,
            x_codes=codes,
            recovery=dummy,
            lowres_codes=None,
        )

    def receive(
        self,
        packet: Optional[WindowPacket],
        expected_crc: Optional[int] = None,
        window_index: int = 0,
    ) -> Tuple[WindowReconstruction, str]:
        """Reconstruct one (possibly impaired) window.

        Returns ``(reconstruction, mode)`` with mode one of ``"hybrid"``,
        ``"cs-fallback"`` or ``"concealed"``.
        """
        if packet is None:
            return self._conceal(window_index), "concealed"

        recon, mode = decode_robust(packet, expected_crc, self._receiver)
        self._last_codes = recon.x_codes
        return recon, mode

    def receive_stream(
        self,
        packets: List[Optional[WindowPacket]],
        crcs: Optional[List[int]] = None,
    ) -> List[Tuple[WindowReconstruction, str]]:
        """Receive a window sequence, applying concealment statefully."""
        out = []
        for idx, packet in enumerate(packets):
            crc = crcs[idx] if crcs is not None else None
            out.append(self.receive(packet, crc, window_index=idx))
        return out
