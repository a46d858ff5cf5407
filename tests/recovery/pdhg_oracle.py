"""The generic PDHG engine: the differential oracle of the Eq. 1 kernel.

Solves problems of the form::

    min_alpha  ||alpha||_1 + sum_i f_i(K_i alpha)

with each ``f_i`` the indicator of a simple convex set, given as a
:class:`ConstraintBlock` (a linear map plus a projection).  The paper's
Eq. 1 is :func:`ball_block` (the L2 ball in measurement space) and
:func:`box_block` (the low-resolution box in *signal* space); normal CS
is the ball alone.

:func:`solve_l1_constrained` runs the iteration that
:mod:`repro.recovery.pdhg` describes with the step rules it defines
(:data:`~repro.recovery.pdhg.RELAXATION`,
:func:`~repro.recovery.pdhg.step_sizes`,
:func:`~repro.recovery.pdhg.update_primal_weight`), one block at a time
and without any of the production kernel's fusion, so
:func:`repro.recovery.eq1.solve_eq1` must agree with it to rounding and
stop at the same iteration (``tests/recovery/test_eq1_kernel.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.recovery.pdhg import (
    CHECK_EVERY,
    RELAXATION,
    PdhgSettings,
    step_sizes,
    update_primal_weight,
)
from repro.recovery.problem import CsProblem
from repro.recovery.prox import project_l2_ball, soft_threshold
from repro.recovery.result import RecoveryResult
from repro.wavelets.operators import SynthesisBasis

Vector = np.ndarray


@dataclass(frozen=True)
class ConstraintBlock:
    """One ``f_i(K_i alpha)`` term: a linear map plus a set projection.

    Attributes
    ----------
    forward:
        ``alpha -> K_i alpha``.
    adjoint:
        ``z -> K_i^T z``.
    project:
        Euclidean projection onto the constraint set (the prox of the
        indicator ``f_i``).
    opnorm_sq:
        An upper bound on ``||K_i||^2``: the block's dual step is
        ``sigma/opnorm_sq``, and its dual move is weighed by it.
    violation:
        Distance-style feasibility measure ``z -> dist(z, set)`` used by
        the stopping rule; returns 0 when feasible.
    out_dim:
        Dimension of the block's range.
    """

    forward: Callable[[Vector], Vector]
    adjoint: Callable[[Vector], Vector]
    project: Callable[[Vector], Vector]
    opnorm_sq: float
    violation: Callable[[Vector], float]
    out_dim: int


def project_box(
    v: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Projection onto the box ``{z : lower <= z <= upper}`` (elementwise).

    ``lower``/``upper`` may be scalars or arrays broadcastable to ``v``;
    every lower bound must not exceed its upper bound.
    """
    arr = np.asarray(v, dtype=float)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), arr.shape)
    hi = np.broadcast_to(np.asarray(upper, dtype=float), arr.shape)
    if np.any(lo > hi):
        raise ValueError("box is empty: some lower bound exceeds its upper bound")
    return np.clip(arr, lo, hi)


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


def box_block(
    basis: SynthesisBasis,
    lower: np.ndarray,
    upper: np.ndarray,
) -> ConstraintBlock:
    """The low-resolution bound block ``lower <= Ψ alpha <= upper``, with Ψ
    applied as the basis's dense matrix.  Ψ is orthonormal, so the block's
    dual step is the engine's ``sigma`` itself."""
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


def solve_l1_constrained(
    n: int,
    blocks: Sequence[ConstraintBlock],
    *,
    settings: PdhgSettings = PdhgSettings(),
    synthesize: Optional[Callable[[Vector], Vector]] = None,
    alpha0: Optional[Vector] = None,
) -> RecoveryResult:
    """Minimize ``||alpha||_1`` subject to the blocks' set constraints.

    Parameters
    ----------
    n:
        Dimension of ``alpha``.
    blocks:
        The constraint terms (at least one).
    settings:
        Iteration controls.
    synthesize:
        Optional coefficient-to-signal map for the returned ``x``
        (defaults to identity).
    alpha0:
        Starting point (defaults to zero); the kernel's box-midpoint cold
        start is ``Ψ^T`` of the midpoint.

    Returns
    -------
    RecoveryResult
        ``residual_norm`` reports the first block's violation (by
        convention the measurement-fidelity block goes first); ``info``
        holds the final ``tau``, ``dual_step`` (the ``sigma`` that block
        ``i`` divides by ``||K_i||^2``) and ``primal_weight``,
        ``lipschitz_sq`` (the block count ``N``) and each block's
        ``violation_i``.
    """
    if not blocks:
        raise ValueError("need at least one constraint block")
    if n <= 0:
        raise ValueError("n must be positive")

    if any(b.opnorm_sq <= 0 for b in blocks):
        raise ValueError("operator norms must be positive")
    lip_sq = float(len(blocks))  # of the block-normalised operator
    weight = 1.0
    tau, sigma = step_sizes(lip_sq, weight)

    alpha = np.zeros(n) if alpha0 is None else np.asarray(alpha0, dtype=float).copy()
    alpha_hat = alpha
    duals: List[Vector] = [np.zeros(b.out_dim) for b in blocks]
    # Primal and duals at the previous check, for the weight update.
    alpha_ref = alpha.copy()
    duals_ref = [d.copy() for d in duals]

    converged = False
    iterations = 0
    for iterations in range(1, settings.max_iter + 1):
        grad = np.zeros(n)
        for i, blk in enumerate(blocks):
            grad += blk.adjoint(duals[i])
        alpha_hat = soft_threshold(alpha - tau * grad, tau)
        alpha_bar = 2.0 * alpha_hat - alpha

        check = iterations % CHECK_EVERY == 0
        if check:
            # Scale for the relative tests: the size of the solution, at least 1.
            limit = settings.tol * max(float(np.linalg.norm(alpha_hat)), 1.0)
            feasible = all(
                blk.violation(blk.forward(alpha_hat)) <= limit for blk in blocks
            )
            if feasible and float(np.linalg.norm(alpha_hat - alpha)) <= limit:
                converged = True
                break

        # Block dual step s_i = sigma/||K_i||^2 with Moreau:
        # prox_{s_i f*}(v) = v - s_i prox_{f/s_i}(v/s_i), and for an
        # indicator prox_{f/s_i} is the projection.
        for i, blk in enumerate(blocks):
            step_i = sigma / blk.opnorm_sq
            v = duals[i] + step_i * blk.forward(alpha_bar)
            dual_hat = v - step_i * blk.project(v / step_i)
            duals[i] = duals[i] + RELAXATION * (dual_hat - duals[i])
        alpha = alpha + RELAXATION * (alpha_hat - alpha)

        if check:
            # In block-normalised units: the norm of (||K_i|| (u_i - u_i_ref))_i.
            dual_move = math.sqrt(
                sum(
                    blk.opnorm_sq * float(np.sum((d - r) ** 2))
                    for blk, d, r in zip(blocks, duals, duals_ref)
                )
            )
            weight = update_primal_weight(
                weight, dual_move, float(np.linalg.norm(alpha - alpha_ref))
            )
            tau, sigma = step_sizes(lip_sq, weight)
            alpha_ref = alpha.copy()
            duals_ref = [d.copy() for d in duals]

    alpha = alpha_hat
    x = synthesize(alpha) if synthesize is not None else alpha.copy()
    first_violation = blocks[0].violation(blocks[0].forward(alpha))
    info = {
        "tau": float(tau),
        "dual_step": float(sigma),
        "primal_weight": float(weight),
        "lipschitz_sq": lip_sq,
    }
    for i, blk in enumerate(blocks):
        info[f"violation_{i}"] = float(blk.violation(blk.forward(alpha)))
    return RecoveryResult(
        alpha=alpha,
        x=x,
        iterations=iterations,
        converged=converged,
        residual_norm=float(first_violation),
        objective=float(np.sum(np.abs(alpha))),
        solver="pdhg",
        info=info,
    )
