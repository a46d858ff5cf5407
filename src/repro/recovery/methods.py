"""Named recovery-method registry shared by runtime, streaming and CLI.

Historically every layer that accepted a ``method`` string (window tasks,
record jobs, ingest sessions, CLI flags) kept its own hard-coded
``("hybrid", "normal")`` tuple, and an unknown name surfaced as a raw
``KeyError``/``ValueError`` with no hint of what *is* registered.  This
module is the single source of truth: a :class:`MethodSpec` per method,
:func:`resolve_method` with a helpful error, and the derived facts the
wiring layers need (does the method consume the low-res parallel path,
hence need a codebook and the hybrid front-end?).

The module is intentionally dependency-free (no numpy) so the CLI can
import it to build ``--method`` choices without paying for the scientific
stack at parser-construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["MethodSpec", "METHODS", "method_names", "resolve_method"]


@dataclass(frozen=True)
class MethodSpec:
    """Everything the wiring layers need to know about one method name.

    Attributes
    ----------
    name:
        The registry key, as it appears on CLI flags and task records.
    uses_lowres:
        Whether the method consumes the low-res parallel path — this is
        what decides the front-end (hybrid vs normal CS), whether a
        codebook must be resolved, and whether packets carry a payload.
    family:
        ``"convex"`` (the paper's Eq.-1 / BPDN solvers) or ``"bayesian"``
        (the BSBL family).
    solver:
        Receiver dispatch key (see
        :meth:`repro.core.receiver.HybridReceiver.reconstruct`).
    description:
        One-line human-readable summary (CLI help, reports).
    """

    name: str
    uses_lowres: bool
    family: str
    solver: str
    description: str


METHODS: Dict[str, MethodSpec] = {
    spec.name: spec
    for spec in (
        MethodSpec(
            name="hybrid",
            uses_lowres=True,
            family="convex",
            solver="eq1",
            description="Paper Eq. 1: BPDN with the low-res box constraint",
        ),
        MethodSpec(
            name="normal",
            uses_lowres=False,
            family="convex",
            solver="bpdn",
            description="Plain CS baseline: BPDN from measurements only",
        ),
        MethodSpec(
            name="bsbl",
            uses_lowres=False,
            family="bayesian",
            solver="bsbl",
            description="Block-sparse Bayesian learning from measurements only",
        ),
        MethodSpec(
            name="bsbl-dequant",
            uses_lowres=True,
            family="bayesian",
            solver="bsbl-dequant",
            description=(
                "BSBL with Bayesian de-quantization: the low-res cells enter "
                "as Gaussian pseudo-observations instead of a hard box"
            ),
        ),
    )
}


def method_names() -> Tuple[str, ...]:
    """Registered method names, sorted (stable CLI choices ordering)."""
    return tuple(sorted(METHODS))


def resolve_method(name: str) -> MethodSpec:
    """The :class:`MethodSpec` for ``name``.

    Raises
    ------
    ValueError
        If ``name`` is not registered; the message lists every registered
        method so a typo on a CLI flag or task record is self-explaining.
    """
    try:
        return METHODS[name]
    except KeyError:
        known = ", ".join(method_names())
        raise ValueError(
            f"unknown recovery method {name!r}; registered methods: {known}"
        ) from None
