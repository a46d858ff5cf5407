"""ADMM solver for basis-pursuit denoising — an independent cross-check.

Solves the same problem as :func:`repro.recovery.eq1.solve_bpdn`::

    min ||w||_1   s.t.   ||z - y|| <= sigma,  w = alpha,  z = A alpha

via consensus ADMM with a cached Cholesky factorization of
``(I + A^T A)``.  Having two structurally different solvers for the same
convex program lets the test suite assert they agree, which is the
strongest available evidence of solver correctness short of a KKT check
(which the tests also perform on small instances).

When a pre-built :class:`CsProblem` is supplied, the factorization comes
from :meth:`CsProblem.admm_factor` — computed once per operator and
shared by every window (and by the batched engine in
:mod:`repro.recovery.batched`), which removes the ``O(n^3)`` per-window
setup cost that used to dominate repeated solves.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve

from repro.recovery.problem import CsProblem
from repro.recovery.prox import project_l2_ball, soft_threshold
from repro.recovery.result import RecoveryResult
from repro.wavelets.operators import SynthesisBasis

__all__ = ["solve_bpdn_admm"]


def solve_bpdn_admm(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    sigma: float,
    *,
    rho: float = 1.0,
    max_iter: int = 3000,
    tol: float = 1e-5,
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """BPDN via ADMM.

    Parameters
    ----------
    phi, basis, y, sigma:
        As in :func:`repro.recovery.eq1.solve_bpdn`.
    rho:
        Augmented-Lagrangian penalty (the method converges for any
        positive value; ``1.0`` is a fine default at our scaling).
    max_iter, tol:
        Iteration cap and primal/dual residual tolerance.
    problem:
        Pre-built :class:`CsProblem`; reuses its cached Cholesky
        factorization of ``I + A^T A`` across windows.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and non-negative, got {sigma!r}")
    if rho <= 0:
        raise ValueError("rho must be positive")
    prob = problem if problem is not None else CsProblem(phi, basis)
    y = np.asarray(y, dtype=float)
    if y.shape != (prob.m,):
        raise ValueError(f"expected {prob.m} measurements")

    a = prob.a
    n = prob.n
    chol = prob.admm_factor()

    w = np.zeros(n)  # split of alpha carrying the L1 term
    z = y.copy()  # split of A alpha carrying the ball constraint
    u_w = np.zeros(n)
    u_z = np.zeros(prob.m)

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # alpha-step: least squares over both consensus constraints.
        rhs = (w - u_w) + a.T @ (z - u_z)
        alpha = cho_solve(chol, rhs)
        a_alpha = a @ alpha
        # w-step: prox of ||.||_1 / rho.
        w_new = soft_threshold(alpha + u_w, 1.0 / rho)
        # z-step: projection onto the sigma-ball around y.
        z_new = project_l2_ball(a_alpha + u_z, y, sigma)
        # Dual updates.
        u_w += alpha - w_new
        u_z += a_alpha - z_new

        primal = np.sqrt(
            float(np.linalg.norm(alpha - w_new)) ** 2
            + float(np.linalg.norm(a_alpha - z_new)) ** 2
        )
        dual = rho * np.sqrt(
            float(np.linalg.norm(w_new - w)) ** 2
            + float(np.linalg.norm(a.T @ (z_new - z))) ** 2
        )
        w, z = w_new, z_new
        scale = max(float(np.linalg.norm(w)), 1.0)
        if primal <= tol * scale and dual <= tol * scale:
            converged = True
            break

    residual = float(np.linalg.norm(prob.forward(w) - y))
    return RecoveryResult(
        alpha=w,
        x=prob.basis.synthesize(w),
        iterations=iterations,
        converged=converged,
        residual_norm=residual,
        objective=float(np.sum(np.abs(w))),
        solver="admm-bpdn",
        info={"rho": float(rho)},
    )
