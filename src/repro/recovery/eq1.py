"""The production Eq. 1 kernel: hybrid and normal-CS PDHG in one loop.

Solves the paper's Eq. 1 — its central contribution — ::

    min_alpha ||alpha||_1   subject to   ||A alpha - y||_2 <= sigma
                                          lower <= Ψ alpha <= upper

where ``lower = x_dot`` (the dequantized low-resolution samples) and
``upper = x_dot + d`` with ``d`` the low-resolution step — "a strong
bound ... an upper and lower bound for each sample" (paper §II) — or,
with no bounds, basis-pursuit denoising: the paper's "normal CS"
baseline of Figs. 7-8 (the ball alone).  :func:`solve_hybrid` and
:func:`solve_bpdn` are the two programs' entry points;
:func:`solve_eq1` is the loop behind both.  The paper solved Eq. 1 with
the SDPT3 conic toolbox; any convergent convex solver reaches the same
optimum (DESIGN.md §2).

The iteration is the relaxed, primal-first Chambolle-Pock iteration of
:mod:`repro.recovery.pdhg` over a ball block and a box block — the same
step sizes, relaxation, primal weight rule, cold start and stopping
rule as the generic engine in ``tests/recovery/pdhg_oracle.py``, its
differential oracle (``tests/recovery/test_eq1_kernel.py``) —
specialised to these two sets:

* the operators come from the :class:`CsProblem` cache: ``A`` (``A^T``
  is its transposed view, not a copy, so that at CR 50 ``A`` and the
  CSR Ψ/Ψ^T pair still fit a 2 MiB L2 together) and the CSR pair
  itself (db4 Ψ is 8.4% non-zero);
* every input is validated once, at entry; the loop runs no contract
  checks and allocates nothing: every step writes into a buffer made
  before the loop, the Ψ/Ψ^T products too, through the basis's
  :meth:`~repro.wavelets.operators.SynthesisBasis.matvec_into_pair`
  (CSR or dense, decided once there);
* each block has its own dual step, ``s/||A||^2`` for the ball and
  ``s`` for the box (``||Ψ|| = 1``), and the duals are carried scaled by
  it, ``d = u ||A||^2/s`` and ``e = v/s``.  Moreau's identity then reads
  ``d^ = w - P(w)`` with ``w = d + K alpha_bar`` (minus ``y`` for the
  ball), free of any step: the ball dual is ``max(0, 1 - sigma/||w||) w``
  in closed form, the box dual ``w - clip(w, lower, upper)``, and the
  primal step ``tau (A^T u + Ψ^T v)`` is
  ``(A^T d/||A||^2 + Ψ^T e) / N`` for ``N`` blocks, since ``tau s = 1/N``
  at every primal weight.  A weight change rescales ``d`` and ``e`` so
  that ``u`` and ``v`` carry over;
* the relaxation ``x <- x + rho (x^ - x)`` at ``rho = 3/2`` is
  ``(alpha^ + alpha_bar)/2`` for the primal, two ops into the primal's
  own buffer;
* soft thresholding is ``v - clip(v, -tau, tau)``; the loop spells each
  clip ``minimum(maximum(.))``, a third of ``np.clip``'s dispatch cost
  at n = 512.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.recovery.pdhg import (
    CHECK_EVERY,
    RELAXATION,
    PdhgSettings,
    step_sizes,
    update_primal_weight,
)
from repro.recovery.problem import CsProblem
from repro.recovery.result import RecoveryResult
from repro.wavelets.operators import SynthesisBasis

__all__ = ["solve_bpdn", "solve_eq1", "solve_hybrid"]


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
        As in :func:`solve_bpdn`.
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
        of the box midpoint with bounds and at zero without, with primal
        weight 1.  It returns the last soft-thresholded iterate
        ``alpha^``, the one the stopping rule tested.

    Returns
    -------
    RecoveryResult
        Labelled ``"pdhg-hybrid"`` with bounds and ``"pdhg-bpdn"``
        without; ``residual_norm = ||A alpha - y||``; ``info`` holds the
        final ``tau``, ``dual_step`` (the box's; the ball's is
        ``dual_step/||A||^2``) and ``primal_weight``, ``lipschitz_sq``
        (the block count ``N``: 2 with bounds, 1 without),
        ``violation_0`` (ball) and, with bounds, ``violation_1`` (box).
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
    psi_into, psi_t_into = problem.basis.matvec_into_pair()
    a_sq = problem.opnorm_sq()
    if a_sq <= 0:
        raise ValueError("operator norms must be positive")
    lip_sq = 2.0 if box else 1.0  # the block count N
    weight = 1.0
    tau, s = step_sizes(lip_sq, weight)  # s/||A||^2 is the ball's dual step
    norm_a = math.sqrt(a_sq)
    tol = settings.tol

    if box:
        # Cold start at the box midpoint, already consistent with the
        # low-resolution channel.
        alpha = psi_t @ ((lo + hi) / 2.0)
    else:
        alpha = np.zeros(n)
    alpha_hat = np.empty(n)
    alpha_bar = np.empty(n)
    step = np.empty(n)
    clipped = np.empty(n)
    # Scaled duals (see the module docstring): d = u ||A||^2/s (ball),
    # e = v/s (box).  The primal step scales A^T d by 1/||A||^2 and the sum
    # by tau s = 1/N; without the box both fold into one multiply.
    inv_a_sq = 1.0 / a_sq
    primal_scale = -1.0 / lip_sq if box else -inv_a_sq
    d = np.zeros(m)
    w = np.empty(m)
    e = np.zeros(n)
    z = np.empty(n)
    psi_t_e = np.empty(n)
    psi_bar = np.empty(n)
    # Primal and block-normalised duals at the previous check, for the weight update.
    alpha_ref, u_ref, v_ref = alpha.copy(), np.zeros(m), np.zeros(n)

    converged = False
    iterations = 0
    for iterations in range(1, settings.max_iter + 1):
        # step = alpha - tau (A^T u + Ψ^T v); alpha_hat = step - clip(step, -tau, tau).
        np.dot(a_t, d, out=step)
        if box:
            step *= inv_a_sq
            step += psi_t_into(e, psi_t_e)
        step *= primal_scale
        step += alpha
        np.maximum(step, -tau, out=clipped)
        np.minimum(clipped, tau, out=clipped)
        np.subtract(step, clipped, out=alpha_hat)
        np.multiply(alpha_hat, 2.0, out=alpha_bar)
        alpha_bar -= alpha

        check = iterations % CHECK_EVERY == 0
        if check:
            limit = tol * max(float(np.linalg.norm(alpha_hat)), 1.0)
            if (
                _ball_violation(a @ alpha_hat, y, radius) <= limit
                and (
                    not box
                    or _box_violation(psi_into(alpha_hat, psi_bar), lo, hi) <= limit
                )
                and float(np.linalg.norm(alpha_hat - alpha)) <= limit
            ):
                converged = True
                break

        # w = d + A alpha_bar - y; d_hat = w - P_ball(w) = max(0, 1 - radius/||w||) w;
        # d <- d + rho (d_hat - d).
        np.dot(a, alpha_bar, out=w)
        w -= y
        w += d
        norm_w = math.sqrt(w @ w)
        d *= 1.0 - RELAXATION
        if norm_w > radius:
            w *= RELAXATION * (1.0 - radius / norm_w)
            d += w
        if box:
            # e_hat = z - clip(z, lo, hi) with z = e + Ψ alpha_bar, so
            # e <- e + rho (e_hat - e) = e + rho (Ψ alpha_bar - clip(z, lo, hi)).
            psi_into(alpha_bar, psi_bar)
            np.add(psi_bar, e, out=z)
            np.maximum(z, lo, out=z)
            np.minimum(z, hi, out=z)
            np.subtract(psi_bar, z, out=z)
            z *= RELAXATION
            e += z
        # alpha <- alpha + rho (alpha_hat - alpha), which at rho = 3/2 is
        # (alpha_hat + alpha_bar) / 2.
        np.add(alpha_hat, alpha_bar, out=alpha)
        alpha *= 0.5

        if check:
            # Block-normalised duals ||A|| u and v (||Ψ|| = 1).
            u, v = (s / norm_a) * d, s * e
            dual_move = math.hypot(
                float(np.linalg.norm(u - u_ref)), float(np.linalg.norm(v - v_ref))
            )
            weight = update_primal_weight(
                weight, dual_move, float(np.linalg.norm(alpha - alpha_ref))
            )
            s_old = s
            tau, s = step_sizes(lip_sq, weight)
            d *= s_old / s
            e *= s_old / s
            alpha_ref, u_ref, v_ref = alpha.copy(), u, v

    alpha = alpha_hat
    residual = float(np.linalg.norm(a @ alpha - y))
    info = {
        "tau": float(tau),
        "dual_step": float(s),
        "primal_weight": float(weight),
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
