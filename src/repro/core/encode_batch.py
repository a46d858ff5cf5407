"""Transmit-side batch engine: the batched CS measurement kernel.

Every encode stacks its windows into a ``(windows, n)`` matrix, so the CS
measurement is one GEMM (``X @ Φᵀ``) and the measurement ADC one
vectorized pass; the low-res channel requantizes, differences and
Huffman-codes the whole stack at once (see :mod:`repro.coding.vectorized`).
A single window is a stack of one: the gateway's ingest usually encodes
stacks of 1, the sweep encodes stacks of k.

Exactness contract (``docs/encoding.md``): **a window's codes do not
depend on the stack it is encoded in**, and they equal a per-window
float64 GEMV followed by the quantizer.  Elementwise stages
(quantization, requantization, differencing, table lookup) are trivially
stack-independent, but a GEMM does not accumulate in the same order for
every stack height, nor as a GEMV does, so measurement values can differ
by a few ULPs — enough to flip a quantizer cell only when a value sits
essentially on a cell boundary.  :func:`measure_window_stack` therefore
detects rows whose scaled measurements fall within ``boundary_guard`` of
a quantizer cell edge (guard ≫ the ~1e-12 GEMM/GEMV deviation, ≪ any
honest cell clearance) and recomputes exactly those rows with the GEMV
before quantizing.
"""

from __future__ import annotations

import numpy as np

from repro.sensing.quantizers import UniformQuantizer

__all__ = ["BOUNDARY_GUARD", "measure_window_stack"]

#: Scaled-measurement distance to a quantizer cell edge below which a
#: window is recomputed with the per-window GEMV, so its codes do not
#: depend on the stack around it.  It sits well above the ULP-level
#: GEMM/GEMV deviation and leaves ~3 orders of magnitude of margin on
#: both sides; a larger guard only recomputes more rows.
BOUNDARY_GUARD = 1e-9


def measure_window_stack(
    phi: np.ndarray,
    quantizer: UniformQuantizer,
    centered: np.ndarray,
    boundary_guard: float = BOUNDARY_GUARD,
) -> np.ndarray:
    """Measurement codes for a stack of centered windows; shape ``(w, m)``.

    One GEMM for the stack, then the boundary guard described in the
    module docstring: rows with any scaled measurement within
    ``boundary_guard`` of a quantizer cell edge are recomputed with the
    per-window float64 GEMV.  ``centered`` is made C-contiguous float64,
    so each guarded row is the exact array a one-window GEMV sees, and
    every row's codes are the same whatever stack it sits in.
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
