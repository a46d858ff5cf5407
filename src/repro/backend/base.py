"""The array-namespace protocol every compute backend implements.

The batched engines (:mod:`repro.recovery.batched`,
:mod:`repro.core.encode_batch`, the ECGSYN kernels) are written against
an abstract namespace ``xp`` plus a handful of operations that plain
array namespaces do not standardize: Cholesky factor/solve in SciPy's
``(c, lower)`` form, the first-order IIR recurrence behind the ECG
exponential integrator, and the ``packbits``/``bincount`` pair the
coding layer leans on.  :class:`ArrayBackend` bundles the namespace and
those shims behind one object, so adding a GPU or JIT backend is a
subclass plus a registry entry — no engine code changes.

Contract highlights:

* ``xp`` must be NumPy-call-compatible for the operations the engines
  use (``asarray``/``zeros``/``stack``/``sign``/``maximum``/``abs``/
  ``sqrt``/``any``/``arange``/``eye``/``linalg.norm``/...).  For the
  reference backend it *is* the ``numpy`` module, which is what makes
  the exact path bit-identical to the pre-seam code.
* ``available()`` must be safe to call when the backing library is not
  installed (lazy import + capability detection); constructing an
  unavailable backend raises :class:`BackendUnavailableError`.
* ``to_numpy`` is the device→host boundary: results crossing back into
  the scalar/NumPy world (``RecoveryResult``, quantizers, metrics) go
  through it exactly once.
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar

from repro.backend.settings import PRECISIONS

__all__ = ["ArrayBackend", "BackendUnavailableError"]


class BackendUnavailableError(RuntimeError):
    """Raised when a requested backend's library or device is absent."""


class ArrayBackend(abc.ABC):
    """One compute backend: an ``xp`` namespace plus the non-standard shims.

    Subclasses set :attr:`name` (the registry key) and implement the
    abstract surface; everything else — dtype policy included — has a
    protocol-level default.
    """

    #: Registry key; also the value of ``BackendSettings.name``.
    name: ClassVar[str] = ""

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run here (library + device present).

        Must never raise and must not import the backing library at
        module-import time — capability detection is lazy by contract.
        """
        return True

    @property
    @abc.abstractmethod
    def xp(self) -> Any:
        """The array namespace (the ``numpy`` module for the reference)."""

    def dtype(self, precision: str) -> Any:
        """The namespace dtype for a precision name (the dtype policy).

        ``"float64"`` is the exact default; ``"float32"`` the fast path.
        """
        if precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {precision!r}"
            )
        return getattr(self.xp, precision)

    # -- array movement ----------------------------------------------------
    @abc.abstractmethod
    def asarray(self, values: Any, dtype: Any = None) -> Any:
        """``values`` as a backend-resident array (no copy when possible)."""

    @abc.abstractmethod
    def to_numpy(self, arr: Any) -> Any:
        """A host ``numpy.ndarray`` view/copy of a backend array."""

    # -- linear algebra shims ----------------------------------------------
    @abc.abstractmethod
    def cho_factor(self, a: Any) -> Any:
        """Cholesky factorization in SciPy's ``(c, lower)`` convention.

        The returned object is opaque to callers; it only needs to round
        trip through this backend's :meth:`cho_solve`.
        """

    @abc.abstractmethod
    def cho_solve(self, factor: Any, b: Any, overwrite_b: bool = False) -> Any:
        """Solve ``A x = b`` given :meth:`cho_factor`'s output (``b`` may
        be a multi-column right-hand-side stack, shape ``(n, k)``).

        ``overwrite_b=True`` permits — does not require — the backend to
        clobber ``b`` as scratch (SciPy's ``potrs``-in-place path); the
        solution values are identical either way.  Backends without an
        in-place path accept and ignore the flag.
        """

    # -- out=-capable hot-loop operations ------------------------------------
    # Protocol-level defaults cover any NumPy-compatible namespace; the
    # engines route per-iteration temporaries into workspace buffers
    # through these.  With ``out=None`` each is exactly the expression it
    # replaces, so the fresh-allocation baseline shares the code path.

    def matmul(self, a: Any, b: Any, out: Any = None) -> Any:
        """``a @ b``, optionally accumulated into ``out``.

        The ``out=`` form uses the same GEMM accumulation order as the
        operator form — results are bit-identical, only the destination
        allocation differs.
        """
        if out is None:
            return self.xp.matmul(a, b)
        return self.xp.matmul(a, b, out=out)

    def soft_threshold(self, v: Any, threshold: Any, out: Any = None) -> Any:
        """``sign(v) * max(|v| - threshold, 0)``, elementwise.

        The shrinkage operator of FISTA/ADMM.  The ``out=`` form fuses
        the pipeline into ``out`` (one sign temporary remains) and is
        bit-identical to the expression form, signed zeros included.
        """
        xp = self.xp
        if out is None:
            return xp.sign(v) * xp.maximum(xp.abs(v) - threshold, 0.0)
        sgn = xp.sign(v)
        xp.abs(v, out=out)
        out -= threshold
        xp.maximum(out, 0.0, out=out)
        out *= sgn
        return out

    # -- signal/coding shims -----------------------------------------------
    @abc.abstractmethod
    def first_order_iir(self, gain: float, decay: float, u: Any) -> Any:
        """The recurrence ``y[k] = gain * u[k] + decay * y[k-1]``.

        Exactly SciPy's ``lfilter([gain], [1, -decay], u)`` with the
        coefficient dtype following ``u`` — the ECGSYN exponential
        integrator, shape-preserving over a 1-D drive signal.
        """

    @abc.abstractmethod
    def packbits(self, bits: Any) -> Any:
        """``numpy.packbits`` semantics (big-endian within each byte)."""

    @abc.abstractmethod
    def bincount(self, values: Any, minlength: int = 0) -> Any:
        """``numpy.bincount`` semantics over non-negative integers."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
