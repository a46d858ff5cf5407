"""Shared configuration of the hybrid front-end (node + receiver).

On real hardware the node and the receiver agree offline on the window
length, chipping-sequence seed, quantizer depths and the Huffman codebook.
:class:`FrontEndConfig` is that agreement in one immutable object: both
sides of the link are constructed from the *same* config, which is what
makes the end-to-end pipeline bit-faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.metrics.compression import ORIGINAL_RESOLUTION_BITS, cs_channel_cr
from repro.recovery.bsbl import BsblSettings
from repro.recovery.pdhg import PdhgSettings
from repro.sensing.matrices import SensingSpec

__all__ = ["FrontEndConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class FrontEndConfig:
    """Everything node and receiver must share.

    Attributes
    ----------
    window_len:
        Samples per fixed processing window (``n``); must suit the wavelet
        depth (512 = 2^9 by default).
    n_measurements:
        CS measurements per window (``m``, = RMPI channels).
    lowres_bits:
        Resolution of the parallel low-resolution channel (paper trade-off
        point: 7).
    acquisition_bits:
        Resolution of the underlying high-resolution acquisition the
        low-res channel is derived from (11 for MIT-BIH-class records).
    measurement_bits:
        Quantization depth of the transmitted CS measurements (the paper
        accounts measurements at the original 12-bit resolution).
    basis_spec:
        Sparsifying basis name for :func:`repro.wavelets.make_basis`.
    sensing:
        Measurement-ensemble spec (kind + chipping seed).
    solver:
        PDHG iteration controls used at the receiver.
    sigma_safety:
        Multiplier on the measurement-quantization noise 2-norm used as
        the fidelity radius σ in Eq. 1.
    bsbl:
        EM controls of the Bayesian recovery family
        (:mod:`repro.recovery.bsbl`); ignored by the convex methods.
        Receiver-side only — it never changes what the node transmits.
    """

    window_len: int = 512
    n_measurements: int = 96
    lowres_bits: int = 7
    acquisition_bits: int = 11
    measurement_bits: int = ORIGINAL_RESOLUTION_BITS
    basis_spec: str = "db4"
    sensing: SensingSpec = field(default_factory=SensingSpec)
    solver: PdhgSettings = field(default_factory=PdhgSettings)
    sigma_safety: float = 2.0
    bsbl: BsblSettings = field(default_factory=BsblSettings)

    def __post_init__(self) -> None:
        if self.window_len <= 0:
            raise ValueError("window_len must be positive")
        if not 1 <= self.n_measurements <= self.window_len:
            raise ValueError(
                "n_measurements must be in [1, window_len]"
            )
        if not 1 <= self.lowres_bits <= self.acquisition_bits:
            raise ValueError(
                "lowres_bits must be in [1, acquisition_bits]"
            )
        if self.measurement_bits <= 0:
            raise ValueError("measurement_bits must be positive")
        if self.sigma_safety < 0:
            raise ValueError("sigma_safety cannot be negative")

    @property
    def cs_cr_percent(self) -> float:
        """CS-channel compression ratio this config realises (Eq. 3)."""
        return cs_channel_cr(self.window_len, self.n_measurements)

    @property
    def delta(self) -> float:
        """Undersampling ratio m/n (the paper's δ)."""
        return self.n_measurements / self.window_len

    @property
    def lowres_step_codes(self) -> int:
        """Quantization cell width ``d`` in acquisition-code units."""
        return 1 << (self.acquisition_bits - self.lowres_bits)

    def with_measurements(self, m: int) -> "FrontEndConfig":
        """Same config at a different measurement count (CR sweeps)."""
        return replace(self, n_measurements=m)

    def with_lowres_bits(self, bits: int) -> "FrontEndConfig":
        """Same config at a different low-res resolution (ablations)."""
        return replace(self, lowres_bits=bits)

    def for_cr(self, cr_percent: float) -> "FrontEndConfig":
        """Config whose measurement count realises the given CS-channel CR."""
        from repro.metrics.compression import measurements_for_cr

        m = measurements_for_cr(self.window_len, cr_percent)
        return self.with_measurements(max(1, m))


#: The paper's operating point: 512-sample windows, 7-bit parallel channel,
#: db4 sparsifying basis, Bernoulli (RMPI-equivalent) sensing.
DEFAULT_CONFIG = FrontEndConfig()
