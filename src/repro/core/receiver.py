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
from typing import Optional

import numpy as np

from repro.coding.codebook import DifferenceCodebook
from repro.core.config import FrontEndConfig
from repro.core.packets import WindowPacket
from repro.devtools.contracts import check_dtype, check_shape
from repro.recovery.bpdn import solve_bpdn
from repro.recovery.bsbl import (
    lowres_cell_stats,
    measurement_noise_var,
    solve_bsbl,
    solve_bsbl_dequant,
)
from repro.recovery.hybrid import solve_hybrid
from repro.recovery.methods import MethodSpec, resolve_method
from repro.recovery.opcache import problem_for_config
from repro.recovery.result import RecoveryResult
from repro.sensing.quantizers import lowres_bounds, measurement_quantizer

__all__ = ["WindowReconstruction", "HybridReceiver"]


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
        Optional registered method name (see
        :mod:`repro.recovery.methods`).  ``None`` keeps the historical
        payload-driven dispatch (Eq. 1 when the packet carries a low-res
        payload, plain BPDN otherwise); a named method pins the solver
        family — in particular ``"bsbl"``/``"bsbl-dequant"`` route to the
        Bayesian solvers.  Methods that consume the low-res path degrade
        to their payload-less sibling on a stripped packet, which is the
        streaming CRC-fallback contract.
    """

    def __init__(
        self,
        config: FrontEndConfig,
        codebook: Optional[DifferenceCodebook] = None,
        method: Optional[str] = None,
    ) -> None:
        if codebook is not None and codebook.resolution_bits != config.lowres_bits:
            raise ValueError("codebook resolution does not match the config")
        self.config = config
        self.codebook = codebook
        self.method_spec: Optional[MethodSpec] = (
            None if method is None else resolve_method(method)
        )
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
        a per-measurement variance for the Gaussian likelihood, with
        ``config.recovery.bsbl.noise_scale`` playing ``sigma_safety``'s
        slack role.
        """
        return measurement_noise_var(
            self.quantizer.step, self.config.recovery.bsbl.noise_scale
        )

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

    def reconstruct(
        self,
        packet: WindowPacket,
        alpha0: Optional[np.ndarray] = None,
    ) -> WindowReconstruction:
        """Full receiver pipeline for one packet.

        Without a pinned method, hybrid packets (non-empty low-res
        payload) get the Eq. 1 solve and normal-CS packets fall back to
        plain BPDN; a pinned method routes through its registered solver
        instead (Bayesian methods included), degrading to the
        payload-less sibling when the packet arrives stripped.
        ``alpha0`` optionally warm-starts the solver — typically the
        previous window's coefficients in a streaming session.
        """
        if packet.n != self.config.window_len:
            raise ValueError("packet window length does not match the config")
        if packet.m != self.config.n_measurements:
            raise ValueError("packet measurement count does not match the config")
        y = self.decode_measurements(packet)
        has_payload = packet.lowres_bit_length > 0

        if self.method_spec is None:
            solver = "eq1" if has_payload else "bpdn"
        else:
            solver = self.method_spec.solver
        if not has_payload:
            # Stripped packet (CRC fallback) through a payload-consuming
            # link: degrade to the measurements-only sibling.
            solver = {"eq1": "bpdn", "bsbl-dequant": "bsbl"}.get(solver, solver)

        lowres = None
        bounds = None
        if solver in ("eq1", "bsbl-dequant"):
            lowres = self.decode_lowres(packet)
            lower, upper = lowres_bounds(
                lowres, self.config.acquisition_bits, self.config.lowres_bits
            )
            bounds = (lower - self.center, upper - self.center)

        if solver == "eq1":
            result = solve_hybrid(
                self.phi,
                self.basis,
                y,
                self.sigma(),
                bounds[0],
                bounds[1],
                settings=self.config.solver,
                problem=self.problem,
                alpha0=alpha0,
            )
        elif solver == "bpdn":
            result = solve_bpdn(
                self.phi,
                self.basis,
                y,
                self.sigma(),
                settings=self.config.solver,
                problem=self.problem,
                alpha0=alpha0,
            )
        elif solver == "bsbl":
            result = solve_bsbl(
                self.phi,
                self.basis,
                y,
                self.noise_var(),
                settings=self.config.recovery.bsbl,
                problem=self.problem,
                alpha0=alpha0,
            )
        elif solver == "bsbl-dequant":
            mid, quant_var = lowres_cell_stats(bounds[0], bounds[1])
            result = solve_bsbl_dequant(
                self.phi,
                self.basis,
                y,
                self.noise_var(),
                mid,
                quant_var,
                settings=self.config.recovery.bsbl,
                problem=self.problem,
                alpha0=alpha0,
            )
        else:  # pragma: no cover - the registry only emits the above
            raise ValueError(f"unknown solver key {solver!r}")
        x_codes = result.x + self.center
        return WindowReconstruction(
            window_index=packet.window_index,
            x_codes=x_codes,
            recovery=result,
            lowres_codes=lowres,
        )
