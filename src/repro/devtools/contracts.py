"""Runtime array contracts for the pipeline's public entry points.

The lint side of ``repro.devtools`` catches what is statically visible;
this module covers the rest at the API boundary: a malformed window or a
wrong-dtype measurement vector should fail *here* with a message naming
the argument, not three frames deep inside a NumPy broadcast.

Three assertion helpers — :func:`check_shape`, :func:`check_dtype`,
:func:`check_finite` — validate one array each and return it as an
``ndarray`` so call sites can chain them.  The :func:`array_contract`
decorator applies the same checks declaratively to named parameters::

    @array_contract(x=dict(shape=("n",), dtype="floating", finite=True))
    def measure(self, x): ...

Shape specs are tuples whose entries are exact ints, ``None`` wildcards,
or string symbols; symbols must agree across every parameter of one
call (``("m", "n")`` and ``("n",)`` tie the two arguments together).

Checks raise :class:`ContractError`; they always run.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "ContractError",
    "check_shape",
    "check_dtype",
    "check_finite",
    "array_contract",
]

ShapeSpec = Sequence[Union[int, str, None]]
DtypeSpec = Union[str, type, np.dtype, Tuple[Union[str, type, np.dtype], ...]]


class ContractError(TypeError, ValueError):
    """An array violated a declared contract.

    Subclasses both :class:`TypeError` and :class:`ValueError` so call
    sites that historically raised either keep satisfying their callers'
    ``except`` clauses (and the existing test suite) unchanged.
    """


def _fmt_shape(spec: ShapeSpec) -> str:
    inner = ", ".join("*" if s is None else str(s) for s in spec)
    if len(spec) == 1:
        inner += ","
    return "(" + inner + ")"


def check_shape(
    arr: Any,
    shape: ShapeSpec,
    *,
    name: str = "array",
    dims: Optional[Dict[str, int]] = None,
) -> np.ndarray:
    """Assert ``arr`` has the given shape; return it as an ``ndarray``.

    ``shape`` entries are exact ints, ``None`` wildcards, or string
    symbols.  When ``dims`` (a mutable mapping) is passed, symbols bind
    on first sight and must match on every later use, which ties shapes
    together across arguments (``("m", "n")`` vs ``("n",)``).
    """
    a = np.asarray(arr)
    spec = tuple(shape)
    if a.ndim != len(spec):
        raise ContractError(
            f"{name}: expected a {len(spec)}-D array with shape "
            f"{_fmt_shape(spec)}, got {a.ndim}-D with shape {a.shape}"
        )
    for axis, (want, got) in enumerate(zip(spec, a.shape)):
        if want is None:
            continue
        if isinstance(want, str):
            if dims is None:
                continue
            bound = dims.setdefault(want, got)
            if bound != got:
                raise ContractError(
                    f"{name}: axis {axis} has size {got} but dimension "
                    f"{want!r} was already bound to {bound}"
                )
        elif got != want:
            raise ContractError(
                f"{name}: expected shape {_fmt_shape(spec)}, got {a.shape} "
                f"(axis {axis}: {got} != {want})"
            )
    return a


def check_dtype(arr: Any, kind: DtypeSpec, *, name: str = "array") -> np.ndarray:
    """Assert ``arr``'s dtype matches; return it as an ``ndarray``.

    ``kind`` may be the abstract kinds ``"integer"``, ``"floating"``,
    ``"inexact"``, ``"number"`` or ``"bool"``, any concrete
    ``np.dtype``-coercible value, or a tuple of alternatives.  The input
    array's shape is preserved (no cast is performed — violations raise).
    """
    a = np.asarray(arr)
    kinds = kind if isinstance(kind, tuple) else (kind,)
    abstract = {
        "integer": np.integer,
        "floating": np.floating,
        "inexact": np.inexact,
        "number": np.number,
        "bool": np.bool_,
    }
    for k in kinds:
        if isinstance(k, str) and k in abstract:
            if np.issubdtype(a.dtype, abstract[k]):
                return a
        elif a.dtype == np.dtype(k):  # type: ignore[arg-type]
            return a
    wanted = ", ".join(str(k) for k in kinds)
    raise ContractError(f"{name}: expected dtype {wanted}, got {a.dtype}")


def check_finite(arr: Any, *, name: str = "array") -> np.ndarray:
    """Assert ``arr`` holds no NaN/Inf; return it as an ``ndarray``.

    Integer and boolean arrays pass trivially; the array's shape is
    never changed.
    """
    a = np.asarray(arr)
    if a.size and np.issubdtype(a.dtype, np.inexact):
        finite = np.isfinite(a)
        if not finite.all():
            bad = int(a.size - int(np.count_nonzero(finite)))
            raise ContractError(
                f"{name}: contains {bad} non-finite value(s) (NaN or Inf)"
            )
    return a


def array_contract(
    **specs: Mapping[str, Any],
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator applying contracts to named array parameters.

    Each keyword names a parameter of the wrapped function and maps to a
    spec dict with any of the keys ``shape`` (see :func:`check_shape`),
    ``ndim`` (int), ``dtype`` (see :func:`check_dtype`) and ``finite``
    (bool).  Shape symbols are shared across all parameters of a single
    call.  ``None`` arguments are skipped so optional parameters stay
    optional; validated arguments reach the function as ``ndarray``\\ s.
    """
    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        sig = inspect.signature(func)
        unknown = set(specs) - set(sig.parameters)
        if unknown:
            raise TypeError(
                f"array_contract on {func.__qualname__}: unknown "
                f"parameter(s) {sorted(unknown)}"
            )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = sig.bind(*args, **kwargs)
            dims: Dict[str, int] = {}
            for pname, spec in specs.items():
                if pname not in bound.arguments:
                    continue
                value = bound.arguments[pname]
                if value is None:
                    continue
                if "shape" in spec:
                    value = check_shape(
                        value, spec["shape"], name=pname, dims=dims
                    )
                elif "ndim" in spec:
                    value = np.asarray(value)
                    if value.ndim != spec["ndim"]:
                        raise ContractError(
                            f"{pname}: expected a {spec['ndim']}-D array, "
                            f"got {value.ndim}-D with shape {value.shape}"
                        )
                if "dtype" in spec:
                    value = check_dtype(value, spec["dtype"], name=pname)
                if spec.get("finite"):
                    value = check_finite(value, name=pname)
                bound.arguments[pname] = value
            return func(*bound.args, **bound.kwargs)

        return wrapper

    return decorate
