"""FISTA for the unconstrained LASSO formulation.

Solves the penalized form ``min 0.5 ||A alpha - y||^2 + lam ||alpha||_1``
with Nesterov acceleration.  Included as (a) an independent cross-check of
the PDHG solutions (for matched ``lam``/``sigma`` pairs the solution paths
agree) and (b) a baseline the solver ablation benchmarks exercise.

One optional behavior extends the textbook iteration: **monotone
adaptive restart** (``adaptive_restart``), the O'Donoghue–Candès function
scheme with step rejection.  When the accelerated candidate increases the
composite objective, the momentum is discarded (``t_k = 1``) and the
iterate is recomputed as a plain ISTA step from the previous point, which
the majorization property guarantees is non-increasing.  With the flag
on, the composite objective is non-increasing at *every* accepted
iterate — a property the hypothesis suite checks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.recovery.problem import CsProblem
from repro.recovery.prox import soft_threshold
from repro.recovery.result import RecoveryResult
from repro.wavelets.operators import SynthesisBasis

__all__ = ["solve_fista", "lambda_max"]


def lambda_max(problem: CsProblem, y: np.ndarray) -> float:
    """Smallest ``lam`` for which the LASSO solution is exactly zero
    (``||A^T y||_inf``); useful for scaling regularization sweeps."""
    return float(np.max(np.abs(problem.adjoint(np.asarray(y, dtype=float)))))


def _composite_objective(
    prob: CsProblem, alpha: np.ndarray, y: np.ndarray, lam: float
) -> float:
    """The LASSO objective ``0.5 ||A alpha - y||^2 + lam ||alpha||_1``."""
    residual = prob.forward(alpha) - y
    return 0.5 * float(residual @ residual) + lam * float(np.sum(np.abs(alpha)))


def solve_fista(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    lam: float,
    *,
    max_iter: int = 2000,
    tol: float = 1e-6,
    problem: Optional[CsProblem] = None,
    adaptive_restart: bool = False,
    objective_history: Optional[List[float]] = None,
) -> RecoveryResult:
    """Accelerated proximal-gradient solve of the LASSO.

    Parameters
    ----------
    phi, basis, y:
        Measurement setup, as elsewhere in :mod:`repro.recovery`.
    lam:
        L1 penalty weight (must be positive; see :func:`lambda_max`).
    max_iter, tol:
        Iteration cap and relative-change stopping tolerance.
    problem:
        Optional pre-built :class:`CsProblem`.
    adaptive_restart:
        Enable the monotone restart scheme (see module docstring); the
        number of restarts taken is reported in ``info["restarts"]``.
    objective_history:
        When a list is supplied, the composite objective at the starting
        point and after every accepted iterate is appended to it.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    prob = problem if problem is not None else CsProblem(phi, basis)
    y = np.asarray(y, dtype=float)
    if y.shape != (prob.m,):
        raise ValueError(f"expected {prob.m} measurements")

    step = 1.0 / prob.opnorm_sq()
    alpha = np.zeros(prob.n)
    momentum = alpha.copy()
    t_k = 1.0
    restarts = 0
    track = adaptive_restart or objective_history is not None
    objective_now = (
        _composite_objective(prob, alpha, y, lam) if track else 0.0
    )
    if objective_history is not None:
        objective_history.append(objective_now)

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = prob.adjoint(prob.forward(momentum) - y)
        alpha_new = soft_threshold(momentum - step * grad, step * lam)
        if adaptive_restart:
            objective_new = _composite_objective(prob, alpha_new, y, lam)
            if objective_new > objective_now:
                # Reject the accelerated candidate: restart the momentum
                # and take a plain ISTA step from the current point, which
                # cannot increase the objective at step <= 1/L.
                restarts += 1
                t_k = 1.0
                grad = prob.adjoint(prob.forward(alpha) - y)
                alpha_new = soft_threshold(alpha - step * grad, step * lam)
                objective_new = _composite_objective(prob, alpha_new, y, lam)
            objective_now = objective_new
        elif objective_history is not None:
            objective_now = _composite_objective(prob, alpha_new, y, lam)
        if objective_history is not None:
            objective_history.append(objective_now)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
        momentum = alpha_new + ((t_k - 1.0) / t_next) * (alpha_new - alpha)
        change = float(np.linalg.norm(alpha_new - alpha))
        scale = max(float(np.linalg.norm(alpha_new)), 1.0)
        alpha = alpha_new
        t_k = t_next
        if change <= tol * scale:
            converged = True
            break

    residual = float(np.linalg.norm(prob.forward(alpha) - y))
    info = {"lam": float(lam), "step": float(step)}
    if adaptive_restart:
        info["restarts"] = float(restarts)
    return RecoveryResult(
        alpha=alpha,
        x=prob.basis.synthesize(alpha),
        iterations=iterations,
        converged=converged,
        residual_norm=residual,
        objective=float(np.sum(np.abs(alpha))),
        solver="fista-lasso",
        info=info,
    )
