"""Basis-pursuit denoising: the *normal CS* recovery baseline.

Solves::

    min_alpha ||alpha||_1   subject to   ||A alpha - y||_2 <= sigma

— the paper's Eq. 1 *without* the low-resolution box constraint, i.e. what
the paper calls "normal CS" / "CS" in Figs. 7-8.  :func:`solve_bpdn` runs
the fused Eq. 1 kernel (:func:`repro.recovery.eq1.solve_eq1`) without
bounds; :func:`ball_block` states the same ball as a constraint block of
the generic PDHG engine (reweighted L1, and the kernel's oracle).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.recovery.eq1 import solve_eq1
from repro.recovery.pdhg import ConstraintBlock, PdhgSettings
from repro.recovery.problem import CsProblem
from repro.recovery.prox import project_l2_ball
from repro.recovery.result import RecoveryResult
from repro.wavelets.operators import SynthesisBasis

__all__ = ["ball_block", "solve_bpdn"]


def ball_block(problem: CsProblem, y: np.ndarray, sigma: float) -> ConstraintBlock:
    """The measurement-fidelity block ``||A alpha - y|| <= sigma``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != problem.m:
        raise ValueError(f"expected {problem.m} measurements")
    if sigma < 0:
        raise ValueError("sigma cannot be negative")

    def violation(z: np.ndarray) -> float:
        return max(0.0, float(np.linalg.norm(z - y)) - sigma)

    return ConstraintBlock(
        forward=problem.forward,
        adjoint=problem.adjoint,
        project=lambda z: project_l2_ball(z, y, sigma),
        opnorm_sq=problem.opnorm_sq(),
        violation=violation,
        out_dim=problem.m,
    )


def solve_bpdn(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    sigma: float,
    *,
    settings: PdhgSettings = PdhgSettings(),
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """Recover a window from CS measurements alone (normal CS).

    Parameters
    ----------
    phi:
        ``m x n`` sensing matrix (ignored if ``problem`` is given).
    basis:
        Sparsifying synthesis basis Ψ.
    y:
        Measurement vector ``Φ x + noise``.
    sigma:
        Fidelity radius; use (an upper bound on) the measurement-noise
        2-norm.  ``sigma = 0`` gives equality-constrained basis pursuit.
    settings:
        PDHG iteration controls.
    problem:
        Pre-built :class:`CsProblem` to reuse the cached composed operator
        across windows.

    Returns
    -------
    RecoveryResult
        With ``x`` in signal units and ``residual_norm = ||A alpha - y||``.
    """
    prob = problem if problem is not None else CsProblem(phi, basis)
    return solve_eq1(prob, y, sigma, settings=settings)
