"""Transmit-side batch engine: settings + the batched CS measurement kernel.

PR 4 batched the *receiver* (GEMM solvers + operator cache); this module
is the transmit-side counterpart.  A record's windows are stacked into a
``(windows, n)`` matrix so the CS measurement is one GEMM
(``X @ Φᵀ``), the measurement ADC is one vectorized pass, and the low-res
channel requantizes/differences/Huffman-codes the whole stack at once
(see :mod:`repro.coding.vectorized`).

Exactness contract (``docs/encoding.md``): the batch path is
**bit-identical** to the scalar per-window path.  Elementwise stages
(quantization, requantization, differencing, table lookup) are trivially
identical, but a GEMM does not accumulate in the same order as a
per-window GEMV, so measurement values can differ by a few ULPs — enough
to flip a quantizer cell only when a value sits essentially on a cell
boundary.  :func:`measure_window_stack` therefore detects rows whose
scaled measurements fall within ``boundary_guard`` of a quantizer cell
edge (guard ≫ the ~1e-12 GEMM/GEMV deviation, ≪ any honest cell
clearance) and recomputes exactly those rows with the scalar GEMV before
quantizing, making the batched codes deterministically equal to the
scalar ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sensing.quantizers import UniformQuantizer

__all__ = ["EncodeEngineSettings", "measure_window_stack"]


@dataclass(frozen=True)
class EncodeEngineSettings:
    """Node-side engine controls carried on ``FrontEndConfig.encode``.

    Purely a transmit-efficiency knob — with the exactness contract above
    it never changes what the node transmits, so it is safe to vary per
    deployment.

    Attributes
    ----------
    boundary_guard:
        Scaled-measurement distance to a quantizer cell edge below which
        a window is recomputed with the scalar GEMV.  Must sit well above
        the ULP-level GEMM/GEMV deviation; the default leaves ~3 orders
        of magnitude of margin on both sides.
    """

    boundary_guard: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.boundary_guard < 0.5:
            raise ValueError("boundary_guard must be in (0, 0.5)")


def measure_window_stack(
    phi: np.ndarray,
    quantizer: UniformQuantizer,
    centered: np.ndarray,
    boundary_guard: float = EncodeEngineSettings.boundary_guard,
) -> np.ndarray:
    """Measurement codes for a stack of centered windows; shape ``(w, m)``.

    One GEMM for the stack, then the boundary guard described in the
    module docstring: rows with any scaled measurement within
    ``boundary_guard`` of a quantizer cell edge are recomputed with the
    per-window float64 GEMV.  ``centered`` must be C-contiguous float64 —
    each guarded row is then the exact array the scalar path sees — and
    every code equals the scalar path's bit for bit.
    """
    centered = np.ascontiguousarray(centered, dtype=np.float64)
    if centered.ndim != 2:
        raise ValueError("expected a (windows, n) stack of centered windows")
    y = centered @ phi.T
    scaled = (y + quantizer.full_scale) / quantizer.step
    near_edge = np.abs(scaled - np.rint(scaled)) < boundary_guard
    for row in np.flatnonzero(near_edge.any(axis=1)):
        y[row] = phi @ centered[row]
    return quantizer.quantize(y)
