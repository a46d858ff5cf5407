"""Receiver-side decode and reconstruction (right half of paper Fig. 1).

From a :class:`~repro.core.packets.WindowPacket` and the shared config,
the receiver

1. rebuilds the sensing matrix and measurement quantizer (offline state),
2. dequantizes the CS measurements and sizes the fidelity radius σ from
   the known quantization noise,
3. decodes the Huffman low-res payload back into the B-bit samples and
   converts them to the per-sample box ``[x_dot, x_dot + d - 1]`` on the
   acquisition-code grid (the Eq. 1 bounds),
4. solves hybrid BPDN (Eq. 1) — or plain BPDN for a normal-CS packet —
   and returns the reconstruction in acquisition-code units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.coding.codebook import DifferenceCodebook
from repro.core.config import FrontEndConfig
from repro.core.packets import WindowPacket
from repro.devtools.contracts import check_dtype, check_shape
from repro.recovery.bsbl import (
    lowres_cell_stats,
    measurement_noise_var,
    solve_bsbl,
    solve_bsbl_dequant,
)
from repro.recovery.eq1 import solve_bpdn, solve_hybrid
from repro.recovery.methods import resolve_method
from repro.recovery.opcache import problem_for_config
from repro.recovery.result import RecoveryResult
from repro.sensing.quantizers import lowres_bounds, measurement_quantizer

__all__ = ["DECODERS", "WindowReconstruction", "HybridReceiver"]


@dataclass(frozen=True)
class WindowReconstruction:
    """Receiver output for one window.

    ``x_codes`` is the reconstructed waveform on the (float) acquisition-
    code grid, directly comparable to ``record.adu``; ``recovery`` carries
    the solver diagnostics; ``lowres_codes`` is the decoded parallel-path
    stream (``None`` for normal-CS packets).
    """

    window_index: int
    x_codes: np.ndarray
    recovery: RecoveryResult
    lowres_codes: Optional[np.ndarray]

    def x_centered(self, center: int) -> np.ndarray:
        """The reconstruction re-centered; same shape as ``x_codes``."""
        return self.x_codes - center


class HybridReceiver:
    """Decodes packets produced by either front-end under a shared config.

    Parameters
    ----------
    config:
        Must equal the transmitter's config.
    codebook:
        The shared offline codebook; only needed to decode hybrid packets
        (may be ``None`` for a normal-CS-only receiver).
    method:
        Registered method name (see :mod:`repro.recovery.methods`).  A
        packet carrying a low-res payload is solved by the method itself;
        a payload-less packet (a normal-CS packet, or a hybrid packet
        stripped by the CRC fallback) by the method's measurements-only
        sibling.  The default ``"hybrid"`` thus runs Eq. 1 on hybrid
        packets and plain BPDN on normal-CS ones.
    """

    def __init__(
        self,
        config: FrontEndConfig,
        codebook: Optional[DifferenceCodebook] = None,
        method: str = "hybrid",
    ) -> None:
        if codebook is not None and codebook.resolution_bits != config.lowres_bits:
            raise ValueError("codebook resolution does not match the config")
        self.config = config
        self.codebook = codebook
        self.method = resolve_method(method).name
        # Composed operator — pulled from the process-wide ProblemCache,
        # so receivers at the same operating point share one ΦΨ and its
        # factorizations.
        self.problem = problem_for_config(config)
        self.basis = self.problem.basis
        self.phi = self.problem.phi
        self.center = 1 << (config.acquisition_bits - 1)
        self.quantizer = measurement_quantizer(
            self.phi, float(self.center), config.measurement_bits
        )

    def sigma(self) -> float:
        """Fidelity radius for Eq. 1 from measurement-quantization noise.

        Per-measurement quantization error is uniform in ``±step/2``
        (variance ``step^2/12``); the 2-norm over ``m`` measurements
        concentrates around ``sqrt(m) * step / sqrt(12)`` and
        ``sigma_safety`` adds slack for the tail.
        """
        m = self.config.n_measurements
        return (
            self.config.sigma_safety
            * np.sqrt(m)
            * self.quantizer.step
            / np.sqrt(12.0)
        )

    def noise_var(self) -> float:
        """Measurement-noise variance for the Bayesian family.

        The same quantization-noise model as :meth:`sigma`, expressed as
        a per-measurement variance for the Gaussian likelihood, without
        a safety multiplier.
        """
        return measurement_noise_var(self.quantizer.step)

    def decode_measurements(self, packet: WindowPacket) -> np.ndarray:
        """Measurement codes back to centered-domain values, shape ``(m,)``."""
        codes = check_shape(
            packet.measurement_codes,
            (self.config.n_measurements,),
            name="measurement_codes",
        )
        codes = check_dtype(codes, "integer", name="measurement_codes")
        return self.quantizer.reconstruct(codes)

    def decode_lowres(self, packet: WindowPacket) -> np.ndarray:
        """The parallel path's B-bit samples, shape ``(n,)``, from the payload."""
        if self.codebook is None:
            raise ValueError("receiver has no codebook to decode low-res payloads")
        if packet.lowres_bit_length == 0:
            raise ValueError("packet carries no low-res payload")
        return self.codebook.decode_window(
            packet.lowres_payload, packet.n, packet.lowres_bit_length
        )

    def reconstruct(self, packet: WindowPacket) -> WindowReconstruction:
        """Full receiver pipeline for one packet.

        A packet with a low-res payload is solved by :attr:`method`; a
        payload-less one by its measurements-only sibling
        (:attr:`repro.recovery.methods.MethodSpec.stripped`).  Each call
        is a pure function of the packet and the receiver's config.
        """
        if packet.n != self.config.window_len:
            raise ValueError("packet window length does not match the config")
        if packet.m != self.config.n_measurements:
            raise ValueError("packet measurement count does not match the config")
        y = self.decode_measurements(packet)
        spec = resolve_method(self.method)
        if packet.lowres_bit_length == 0 and spec.stripped is not None:
            spec = resolve_method(spec.stripped)

        lowres = None
        bounds = None
        if spec.uses_lowres:
            lowres = self.decode_lowres(packet)
            lower, upper = lowres_bounds(
                lowres, self.config.acquisition_bits, self.config.lowres_bits
            )
            bounds = (lower - self.center, upper - self.center)

        result = DECODERS[spec.name](self, y, bounds)
        x_codes = result.x + self.center
        return WindowReconstruction(
            window_index=packet.window_index,
            x_codes=x_codes,
            recovery=result,
            lowres_codes=lowres,
        )


Bounds = Optional[Tuple[np.ndarray, np.ndarray]]
Decoder = Callable[[HybridReceiver, np.ndarray, Bounds], RecoveryResult]

#: Method name -> ``(receiver, y, bounds) -> RecoveryResult``: the one
#: place a method meets its solver.  ``bounds`` is the centered low-res
#: box, ``None`` for a method that does not read the payload.  Each entry
#: names its solver in this module's namespace, looked up at call time,
#: so a span tracer that patches the name sees every decode.
DECODERS: Dict[str, Decoder] = {
    "hybrid": lambda rx, y, bounds: solve_hybrid(
        rx.phi,
        rx.basis,
        y,
        rx.sigma(),
        *bounds,
        settings=rx.config.solver,
        problem=rx.problem,
    ),
    "normal": lambda rx, y, bounds: solve_bpdn(
        rx.phi,
        rx.basis,
        y,
        rx.sigma(),
        settings=rx.config.solver,
        problem=rx.problem,
    ),
    "bsbl": lambda rx, y, bounds: solve_bsbl(
        rx.phi,
        rx.basis,
        y,
        rx.noise_var(),
        settings=rx.config.bsbl,
        problem=rx.problem,
    ),
    "bsbl-dequant": lambda rx, y, bounds: solve_bsbl_dequant(
        rx.phi,
        rx.basis,
        y,
        rx.noise_var(),
        *lowres_cell_stats(*bounds),
        settings=rx.config.bsbl,
        problem=rx.problem,
    ),
}
