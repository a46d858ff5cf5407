"""Node-side streaming ingest: samples in, transmit frames out.

:class:`IngestSession` is the online counterpart of
:meth:`repro.core.frontend.HybridFrontEnd.process_record`: it accepts
ECG acquisition codes in arbitrary-sized chunks (whatever a DMA/radio
tick delivers), re-blocks them into windows with a
:class:`~repro.core.windowing.WindowFramer`, and emits one
:class:`StreamFrame` per completed window.  Because the front-end and
the default codebook resolution are shared with the batch pipeline, and
a window's bytes do not depend on the stack it is encoded in, the
emitted packets are **bit-identical**
to the offline encoder's output on the same record — the property the
streaming tests assert byte-for-byte.

Each frame also carries the CRC-32 of its payload (the side channel a
real link would append for error detection) and, optionally, the raw
reference window for receiver-side quality telemetry in this synthetic
testbed; neither is part of the on-air packet bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.coding.codebook import DifferenceCodebook
from repro.core.channel import payload_crc
from repro.core.codebooks import CodebookKey
from repro.core.config import FrontEndConfig
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.core.packets import WindowPacket
from repro.core.windowing import WindowFramer
from repro.devtools.contracts import check_dtype, check_shape
from repro.recovery.methods import resolve_method
from repro.runtime.task import CodebookSpec

__all__ = ["StreamFrame", "IngestSession", "codebook_spec_for"]


def codebook_spec_for(
    config: FrontEndConfig,
    method: str,
    codebook: Optional[DifferenceCodebook] = None,
) -> CodebookSpec:
    """The codebook spec a streaming endpoint should carry.

    Mirrors :meth:`repro.runtime.engine.RecordJob.resolved_codebook_spec`
    exactly, so a streaming transmitter/receiver pair resolves the same
    offline state as a batch job under the same config — the root of the
    bit-identity guarantee.
    """
    if not resolve_method(method).uses_lowres:
        return CodebookSpec.none()
    if codebook is not None:
        return CodebookSpec.from_object(codebook)
    return CodebookSpec.default(
        CodebookKey(
            lowres_bits=config.lowres_bits,
            acquisition_bits=config.acquisition_bits,
        )
    )


@dataclass(frozen=True)
class StreamFrame:
    """One transmitted window plus its link-layer side channel.

    Attributes
    ----------
    patient_id:
        Which patient stream the frame belongs to (gateway routing key).
    packet:
        The on-air :class:`~repro.core.packets.WindowPacket`.
    crc:
        CRC-32 of the packet's semantic payload
        (:func:`repro.core.channel.payload_crc` at encode time); the
        receiver recomputes it to detect payload corruption.
    reference:
        Optional raw acquisition codes of the window, shape ``(n,)``
        int — telemetry-only ground truth for rolling PRD/SNR in the
        synthetic testbed, never counted as transmitted bits.
    """

    patient_id: str
    packet: WindowPacket
    crc: int
    reference: Optional[np.ndarray] = None

    @property
    def window_index(self) -> int:
        """Sequence number of the window in its patient stream."""
        return self.packet.window_index


class IngestSession:
    """Incremental windower/encoder for one patient's sample stream.

    Parameters
    ----------
    patient_id:
        Stream identity stamped on every emitted frame.
    config:
        Shared link configuration (same object the receiver uses).
    method:
        A registered recovery-method name; methods that consume the
        low-res path (``"hybrid"``, ``"bsbl-dequant"``) transmit through
        the hybrid front-end, the rest are CS-only.
    codebook:
        Explicit difference codebook; the default trained codebook for
        the config's resolutions is used when omitted (hybrid only).
    carry_reference:
        Attach each window's raw codes to its frame for receiver-side
        quality telemetry (disable to model a blind deployment).
    """

    def __init__(
        self,
        patient_id: str,
        config: FrontEndConfig,
        *,
        method: str = "hybrid",
        codebook: Optional[DifferenceCodebook] = None,
        carry_reference: bool = True,
    ) -> None:
        self.patient_id = str(patient_id)
        self.config = config
        self.method = method
        self.codebook_spec = codebook_spec_for(config, method, codebook)
        self.carry_reference = bool(carry_reference)
        if resolve_method(method).uses_lowres:
            resolved = self.codebook_spec.resolve()
            assert resolved is not None
            self._frontend = HybridFrontEnd(config, resolved)
        else:
            self._frontend = NormalCsFrontEnd(config)
        self._framer = WindowFramer(config.window_len)

    @property
    def pending_samples(self) -> int:
        """Samples buffered toward the next (incomplete) window."""
        return self._framer.pending

    @property
    def windows_emitted(self) -> int:
        """Complete windows encoded and emitted so far."""
        return self._framer.windows_emitted

    def push(self, samples: np.ndarray) -> List[StreamFrame]:
        """Feed a chunk of acquisition codes; return newly completed frames.

        ``samples`` is a 1-D integer array of any length (including
        empty); window boundaries
        never have to align with chunk boundaries.  Frames come back in
        window order with consecutive ``window_index`` values starting
        at zero.
        """
        arr = check_shape(samples, (None,), name="samples")
        arr = check_dtype(arr, "integer", name="samples")
        windows = list(self._framer.push(arr))
        if not windows:
            return []
        # One engine call for every window this chunk completed; the
        # bytes do not depend on how many that is (docs/encoding.md).
        packets = self._frontend.encode_windows(
            np.stack(windows),
            start_index=self._framer.windows_emitted - len(windows),
        )
        return [
            StreamFrame(
                patient_id=self.patient_id,
                packet=packet,
                crc=payload_crc(packet),
                reference=window.copy() if self.carry_reference else None,
            )
            for packet, window in zip(packets, windows)
        ]

    def flush(self) -> np.ndarray:
        """Discard and return the buffered partial window (1-D, possibly empty).

        A real node never transmits a partial window; callers that want
        zero-padding semantics can pad and :meth:`push` the result.
        """
        return self._framer.flush()
