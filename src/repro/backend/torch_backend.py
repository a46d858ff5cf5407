"""Optional PyTorch backend behind lazy import + capability detection.

Torch does not expose a NumPy-compatible module, so ``xp`` here is a
thin adapter (:class:`_TorchNamespace`) covering exactly the operation
surface the batched engines use — the protocol's real footprint, which
is deliberately small (see ``docs/backends.md`` for the list).  Name
bridges where the APIs diverge: ``rint``→``torch.round``,
``repeat``→``repeat_interleave``, ``flatnonzero``→``nonzero``.

CPU torch counts as available (it is a legitimate vectorized/JIT
backend on its own); CUDA placement is a future knob, not part of this
seam.  Like every non-reference backend this is a *fast* path: results
agree with NumPy/float64 to rounding, bounded by the differential
suites, never bit-for-bit.
"""

from __future__ import annotations

from typing import Any

from repro.backend.base import ArrayBackend, BackendUnavailableError
from repro.backend.registry import register_backend

__all__ = ["TorchBackend"]


def _import_torch() -> Any:
    try:
        import torch
    except Exception:  # pragma: no cover - exercised only without torch
        return None
    return torch


class _TorchLinalg:  # pragma: no cover - needs torch
    """The ``xp.linalg`` sub-namespace the engines touch."""

    def __init__(self, torch: Any) -> None:
        self._torch = torch

    def norm(self, arr: Any, axis: Any = None) -> Any:
        return self._torch.linalg.vector_norm(arr, dim=axis)


class _TorchNamespace:  # pragma: no cover - needs torch
    """NumPy-shaped adapter over ``torch`` for the engine op surface."""

    def __init__(self, torch: Any) -> None:
        self._torch = torch
        self.float64 = torch.float64
        self.float32 = torch.float32
        self.int64 = torch.int64
        self.bool_ = torch.bool
        self.pi = 3.141592653589793
        self.linalg = _TorchLinalg(torch)

    def asarray(self, values: Any, dtype: Any = None) -> Any:
        return self._torch.as_tensor(values, dtype=dtype)

    def ascontiguousarray(self, values: Any, dtype: Any = None) -> Any:
        return self._torch.as_tensor(values, dtype=dtype).contiguous()

    def zeros(self, shape: Any, dtype: Any = None) -> Any:
        return self._torch.zeros(shape, dtype=dtype)

    def zeros_like(self, arr: Any) -> Any:
        return self._torch.zeros_like(arr)

    def empty(self, shape: Any, dtype: Any = None) -> Any:
        return self._torch.empty(shape, dtype=dtype)

    def empty_like(self, arr: Any) -> Any:
        return self._torch.empty_like(arr)

    def full(self, shape: Any, value: Any, dtype: Any = None) -> Any:
        return self._torch.full(
            (shape,) if isinstance(shape, int) else tuple(shape), value, dtype=dtype
        )

    def eye(self, n: int, dtype: Any = None) -> Any:
        return self._torch.eye(n, dtype=dtype)

    def arange(self, n: int) -> Any:
        return self._torch.arange(n)

    def stack(self, arrays: Any, axis: int = 0) -> Any:
        return self._torch.stack(list(arrays), dim=axis)

    def repeat(self, arr: Any, k: int, axis: int) -> Any:
        return self._torch.repeat_interleave(arr, k, dim=axis)

    def sign(self, arr: Any) -> Any:
        return self._torch.sign(arr)

    def abs(self, arr: Any) -> Any:
        return self._torch.abs(arr)

    def maximum(self, a: Any, b: Any) -> Any:
        t = self._torch
        if not t.is_tensor(b):
            b = t.as_tensor(b, dtype=a.dtype)
        return t.maximum(a, b)

    def sqrt(self, arr: Any) -> Any:
        t = self._torch
        return t.sqrt(arr if t.is_tensor(arr) else t.as_tensor(arr))

    def exp(self, arr: Any) -> Any:
        return self._torch.exp(arr)

    def sin(self, arr: Any) -> Any:
        return self._torch.sin(arr)

    def sum(self, arr: Any, axis: Any = None) -> Any:
        return self._torch.sum(arr, dim=axis) if axis is not None else self._torch.sum(arr)

    def any(self, arr: Any) -> Any:
        return self._torch.any(arr)

    def rint(self, arr: Any) -> Any:
        return self._torch.round(arr)

    def flatnonzero(self, arr: Any) -> Any:
        return self._torch.nonzero(arr.reshape(-1)).reshape(-1)


@register_backend
class TorchBackend(ArrayBackend):
    """PyTorch backend over the adapter namespace (optional dependency)."""

    name = "torch"

    @classmethod
    def available(cls) -> bool:
        return _import_torch() is not None

    def __init__(self) -> None:
        torch = _import_torch()
        if torch is None:
            raise BackendUnavailableError(
                "torch backend needs the torch package installed"
            )
        self._torch = torch  # pragma: no cover - needs torch
        self._xp = _TorchNamespace(torch)  # pragma: no cover

    # Exercised only where torch is installed; the differential suites
    # in tests/backend are the executable spec for these shims.
    @property
    def xp(self) -> Any:  # pragma: no cover - needs torch
        return self._xp

    def asarray(self, values: Any, dtype: Any = None) -> Any:  # pragma: no cover
        return self._torch.as_tensor(values, dtype=dtype)

    def to_numpy(self, arr: Any) -> Any:  # pragma: no cover
        return arr.detach().cpu().numpy()

    def cho_factor(self, a: Any) -> Any:  # pragma: no cover
        return (self._torch.linalg.cholesky(a), True)

    def cho_solve(
        self, factor: Any, b: Any, overwrite_b: bool = False
    ) -> Any:  # pragma: no cover
        # overwrite_b accepted for protocol parity; cholesky_solve
        # always writes a fresh output tensor.
        lower_factor, _ = factor
        return self._torch.cholesky_solve(b, lower_factor, upper=False)

    def matmul(self, a: Any, b: Any, out: Any = None) -> Any:  # pragma: no cover
        if out is None:
            return self._torch.matmul(a, b)
        return self._torch.matmul(a, b, out=out)

    def soft_threshold(
        self, v: Any, threshold: Any, out: Any = None
    ) -> Any:  # pragma: no cover
        t = self._torch
        if out is None:
            return t.sign(v) * t.clamp(t.abs(v) - threshold, min=0.0)
        sgn = t.sign(v)
        t.abs(v, out=out)
        out -= threshold
        t.clamp(out, min=0.0, out=out)
        out *= sgn
        return out

    def first_order_iir(self, gain: float, decay: float, u: Any) -> Any:  # pragma: no cover
        # No torch lfilter in the base package: run the recurrence on
        # the host reference backend and move the result back.
        from repro.backend.registry import get_backend

        host = get_backend("numpy")
        y = host.first_order_iir(gain, decay, self.to_numpy(u))
        return self._torch.as_tensor(y, dtype=u.dtype)

    def packbits(self, bits: Any) -> Any:  # pragma: no cover
        from repro.backend.registry import get_backend

        host = get_backend("numpy")
        return self._torch.as_tensor(host.packbits(self.to_numpy(bits)))

    def bincount(self, values: Any, minlength: int = 0) -> Any:  # pragma: no cover
        return self._torch.bincount(values, minlength=minlength)
