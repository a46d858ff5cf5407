"""Hybrid CS recovery — the paper's Eq. 1, its central contribution.

Solves::

    min_alpha ||alpha||_1   subject to   ||A alpha - y||_2 <= sigma
                                          lower <= Ψ alpha <= upper

where ``lower = x_dot`` (the dequantized low-resolution samples) and
``upper = x_dot + d`` with ``d`` the low-resolution step — "a strong bound
... an upper and lower bound for each sample" (paper §II).
:func:`solve_hybrid` runs the fused Eq. 1 kernel
(:func:`repro.recovery.eq1.solve_eq1`).  :func:`box_block` states the same
box as a constraint block of the generic PDHG engine — the L2 ball in
measurement space and the box in *signal* space — for the kernel's
differential oracle; since Ψ is orthonormal its block contributes
exactly 1 to the squared operator norm.

The paper solved this with the SDPT3 conic toolbox; any convergent convex
solver reaches the same optimum (DESIGN.md §2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.recovery.eq1 import solve_eq1
from repro.recovery.pdhg import ConstraintBlock, PdhgSettings
from repro.recovery.problem import CsProblem
from repro.recovery.prox import project_box
from repro.recovery.result import RecoveryResult
from repro.wavelets.operators import SynthesisBasis

__all__ = ["box_block", "solve_hybrid"]


def box_block(
    basis: SynthesisBasis,
    lower: np.ndarray,
    upper: np.ndarray,
) -> ConstraintBlock:
    """The low-resolution bound block ``lower <= Ψ alpha <= upper``, with Ψ
    applied as the basis's dense matrix."""
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.shape != (basis.n,) or hi.shape != (basis.n,):
        raise ValueError(f"bounds must be vectors of length {basis.n}")
    if np.any(lo > hi):
        raise ValueError("empty box: a lower bound exceeds its upper bound")

    psi = basis.as_matrix()

    def violation(z: np.ndarray) -> float:
        return float(np.linalg.norm(z - np.clip(z, lo, hi)))

    return ConstraintBlock(
        forward=lambda alpha: psi @ alpha,
        adjoint=lambda z: psi.T @ z,
        project=lambda z: project_box(z, lo, hi),
        opnorm_sq=1.0,  # Ψ is orthonormal
        violation=violation,
        out_dim=basis.n,
    )


def solve_hybrid(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    sigma: float,
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    settings: PdhgSettings = PdhgSettings(),
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """Recover a window using CS measurements *and* low-resolution bounds.

    Parameters
    ----------
    phi, basis, y, sigma:
        As in :func:`repro.recovery.bpdn.solve_bpdn`.
    lower, upper:
        Per-sample signal bounds from the low-resolution channel, in the
        same units as the signal the measurements were taken from
        (``x_dot`` and ``x_dot + d`` in the paper's notation).
    settings:
        PDHG iteration controls.
    problem:
        Pre-built :class:`CsProblem` for operator reuse across windows.

    Returns
    -------
    RecoveryResult
        ``info["violation_1"]`` reports the final box infeasibility
        (0 when the bounds are met exactly).
    """
    prob = problem if problem is not None else CsProblem(phi, basis)
    return solve_eq1(prob, y, sigma, (lower, upper), settings=settings)
