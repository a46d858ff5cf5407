"""The production Eq. 1 kernel: hybrid and normal-CS PDHG in one loop.

Solves the paper's Eq. 1::

    min_alpha ||alpha||_1   subject to   ||A alpha - y||_2 <= sigma
                                          lower <= Ψ alpha <= upper

or, with no bounds, its normal-CS baseline (the ball alone).  The
iteration is exactly the Chambolle-Pock iteration of
:func:`repro.recovery.pdhg.solve_l1_constrained` with
:func:`~repro.recovery.bpdn.ball_block` and
:func:`~repro.recovery.hybrid.box_block` — the same step sizes, cold
start and stopping rule — specialised to these two sets:

* the operators come from the :class:`CsProblem` cache: ``A`` (``A^T``
  is its transposed view, not a copy, so that at CR 50 ``A`` and the
  CSR Ψ/Ψ^T pair still fit a 2 MiB L2 together) and the CSR pair
  itself (db4 Ψ is 8.4% non-zero);
* every input is validated once, at entry; the loop runs no contract
  checks and calls no closures;
* the ball dual is evaluated in closed form,
  ``u <- s max(0, 1 - sigma/||w||) w`` with ``w = u/s + A alpha_bar - y``
  (Moreau's identity applied to the ball projection);
* soft thresholding is ``v - clip(v, -tau, tau)``; the loop spells each
  clip ``minimum(maximum(.))``, a third of ``np.clip``'s dispatch cost
  at n = 512.

The generic engine stays as the differential oracle
(``tests/recovery/test_eq1_kernel.py``).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.recovery.pdhg import PdhgSettings
from repro.recovery.problem import CsProblem
from repro.recovery.result import RecoveryResult

__all__ = ["solve_eq1"]


def solve_eq1(
    problem: CsProblem,
    y: np.ndarray,
    sigma: float,
    bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    *,
    settings: PdhgSettings = PdhgSettings(),
) -> RecoveryResult:
    """Solve Eq. 1 (``bounds`` given) or plain BPDN (``bounds=None``).

    Parameters
    ----------
    problem:
        The composed operator and its cached matvec state.
    y:
        Measurements, shape ``(m,)``; must be finite.
    sigma:
        Fidelity radius (finite, non-negative).
    bounds:
        ``(lower, upper)`` finite signal bounds, each shape ``(n,)``, with
        ``lower <= upper``; ``None`` drops the box.
    settings:
        PDHG iteration controls.  The iteration starts cold: at ``Ψ^T``
        of the box midpoint with bounds and at zero without.

    Returns
    -------
    RecoveryResult
        Labelled ``"pdhg-hybrid"`` with bounds and ``"pdhg-bpdn"``
        without; ``residual_norm = ||A alpha - y||``; ``info`` holds ``tau``,
        ``sigma``, ``lipschitz_sq``, ``violation_0`` (ball) and, with
        bounds, ``violation_1`` (box).
    """
    n, m = problem.n, problem.m
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != m:
        raise ValueError(f"expected {m} measurements")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements must be finite")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and non-negative, got {sigma!r}")
    radius = float(sigma)
    box = bounds is not None
    if box:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError(f"bounds must be vectors of length {n}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("empty box: a lower bound exceeds its upper bound")
    a = problem.a
    a_t = a.T
    psi, psi_t = problem.basis.matvec_pair()
    lip_sq = problem.opnorm_sq() + (1.0 if box else 0.0)  # ||Ψ|| = 1
    if lip_sq <= 0:
        raise ValueError("operator norms must be positive")
    # tau * s * L^2 = 1 with tau/s = step_ratio (s is the dual step).
    s = 1.0 / np.sqrt(lip_sq * settings.step_ratio)
    tau = settings.step_ratio * s
    tol = settings.tol
    check_every = settings.check_every

    if box:
        # Cold start at the box midpoint, already consistent with the
        # low-resolution channel.
        alpha = psi_t @ ((lo + hi) / 2.0)
    else:
        alpha = np.zeros(n)
    alpha_bar = alpha
    u = np.zeros(m)  # ball dual
    v = np.zeros(n)  # box dual (unused without bounds)

    converged = False
    iterations = 0
    for iterations in range(1, settings.max_iter + 1):
        w = u / s + a @ alpha_bar - y
        norm_w = math.sqrt(w @ w)
        u = (s * (1.0 - radius / norm_w)) * w if norm_w > radius else np.zeros(m)
        if box:
            z = v + s * (psi @ alpha_bar)
            v = z - s * np.minimum(np.maximum(z / s, lo), hi)
            grad = a_t @ u + psi_t @ v
        else:
            grad = a_t @ u
        step = alpha - tau * grad
        alpha_new = step - np.minimum(np.maximum(step, -tau), tau)
        alpha_bar = 2.0 * alpha_new - alpha

        check = iterations % check_every == 0
        change = float(np.linalg.norm(alpha_new - alpha)) if check else 0.0
        alpha = alpha_new
        if check:
            limit = tol * max(float(np.linalg.norm(alpha)), 1.0)
            if (
                _ball_violation(a @ alpha, y, radius) <= limit
                and (not box or _box_violation(psi @ alpha, lo, hi) <= limit)
                and change <= limit
            ):
                converged = True
                break

    residual = float(np.linalg.norm(a @ alpha - y))
    info = {
        "tau": float(tau),
        "sigma": float(s),
        "lipschitz_sq": float(lip_sq),
        "violation_0": max(0.0, residual - radius),
    }
    if box:
        info["violation_1"] = _box_violation(psi @ alpha, lo, hi)
    return RecoveryResult(
        alpha=alpha,
        x=psi @ alpha,
        iterations=iterations,
        converged=converged,
        residual_norm=residual,
        objective=float(np.sum(np.abs(alpha))),
        solver="pdhg-hybrid" if box else "pdhg-bpdn",
        info=info,
    )


def _ball_violation(z: np.ndarray, y: np.ndarray, radius: float) -> float:
    return max(0.0, float(np.linalg.norm(z - y)) - radius)


def _box_violation(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.linalg.norm(z - np.clip(z, lo, hi)))
