"""The NumPy reference backend — the exact path and the host boundary.

``xp`` here is literally the ``numpy`` module and the shims delegate to
SciPy, so an engine running on this backend at float64 executes the
*same functions in the same order* as the pre-seam code: the exact path
is bit-identical by construction, not by tolerance.  Every other
backend's correctness is measured against this one (the differential
suites in ``tests/backend``).

This module is the designated home of the repo's direct ``numpy``/
``scipy`` imports for the seam-covered engines — reprolint's RL105
keeps it that way (seam modules may import :mod:`repro.backend`, never
the array libraries themselves).
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy import linalg as sla
from scipy import signal as sps

from repro.backend.base import ArrayBackend
from repro.backend.registry import register_backend

__all__ = ["NumpyBackend"]

@register_backend
class NumpyBackend(ArrayBackend):
    """CPU reference backend over ``numpy`` + ``scipy`` (always available)."""

    name = "numpy"

    @property
    def xp(self) -> Any:
        return np

    def asarray(self, values: Any, dtype: Any = None) -> np.ndarray:
        """``values`` as a host array, same shape as the input."""
        return np.asarray(values, dtype=dtype)

    def to_numpy(self, arr: Any) -> np.ndarray:
        """``arr`` as a host ndarray, same shape as the input (no copy)."""
        return np.asarray(arr)

    def cho_factor(self, a: Any) -> Any:
        return sla.cho_factor(a)

    def cho_solve(
        self, factor: Any, b: Any, overwrite_b: bool = False
    ) -> np.ndarray:
        """Solution of the factored system, same shape as ``b``.

        ``overwrite_b`` is forwarded to SciPy; it only avoids a copy for
        F-contiguous right-hand sides (C-contiguous stacks are copied to
        Fortran order by LAPACK regardless), and the solution values are
        identical either way.
        """
        return sla.cho_solve(factor, b, overwrite_b=overwrite_b)

    def first_order_iir(self, gain: float, decay: float, u: Any) -> np.ndarray:
        """Filtered signal, same shape as the drive ``u``."""
        u = np.asarray(u)
        # Coefficient dtype follows the drive signal so a float32 fast
        # path stays float32 end to end (lfilter upcasts through
        # result_type(b, a, x) otherwise).
        b = np.asarray([gain], dtype=u.dtype)
        a = np.asarray([1.0, -decay], dtype=u.dtype)
        return sps.lfilter(b, a, u)

    def packbits(self, bits: Any) -> np.ndarray:
        """Bits packed MSB-first into a 1-D uint8 array."""
        return np.packbits(bits)

    def bincount(self, values: Any, minlength: int = 0) -> np.ndarray:
        """Occurrence counts, 1-D of length ``max(values)+1`` or ``minlength``."""
        return np.bincount(values, minlength=minlength)
