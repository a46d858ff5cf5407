"""Chambolle-Pock primal-dual hybrid gradient (PDHG) engine.

Solves problems of the form::

    min_alpha  g(alpha) + sum_i f_i(K_i alpha)

with ``g`` prox-friendly (here: the L1 norm) and each ``f_i`` the indicator
of a simple convex set (here: an L2 ball in measurement space and/or a box
in signal space).  This is exactly the structure of the paper's Eq. 1 —
the SDPT3 conic solve is replaced by this first-order method, which finds
the same optimum of the same convex problem (DESIGN.md §2).

The iteration is Chambolle & Pock's (2011) with extrapolation
``theta = 1``, run primal first and relaxed (Chambolle & Pock 2016)::

    alpha^ <- prox_{tau g}(alpha - tau sum_i K_i^T u_i)     (primal descent)
    alpha_bar <- 2 alpha^ - alpha                          (extrapolation)
    u_i^ <- prox_{sigma_i f_i*}(u_i + sigma_i K_i alpha_bar)  (dual ascent)
    (alpha, u_i) <- (alpha, u_i) + rho ((alpha^, u_i^) - (alpha, u_i))

where ``prox_{sigma_i f_i*}`` is evaluated through Moreau's identity from the
*projection* implementing ``prox_f``.  The relaxation ``rho`` is the
constant :data:`RELAXATION`; at ``rho = 1`` the last line is plain
assignment.  The stopping rule tests the fixed-point residual
``||alpha^ - alpha||`` and the feasibility of ``alpha^``, and a solve
returns the last ``alpha^``, the soft-thresholded iterate.

Each block gets its own dual step ``sigma_i = sigma/||K_i||^2``: diagonal
preconditioning at block granularity (Pock & Chambolle, ICCV 2011), which
keeps every ``prox_{sigma_i f_i*}`` a scalar-step prox.  The steps
satisfy ``tau * sum_i sigma_i ||K_i||^2 = tau * sigma * N = 1`` for ``N``
blocks: ``tau = eta/w`` and ``sigma = eta w`` with ``eta = 1/sqrt(N)``
and a primal weight ``w`` that starts at 1 and is rebalanced at every
convergence check from how far the relaxed primal and the block-normalised
duals ``||K_i|| u_i`` moved since the previous one
(:func:`update_primal_weight`, after PDLP: Applegate et al., 2021).  So
the iterates do not depend on the scale of any one block: scaling ``K_i``
and its set together leaves every ``alpha`` unchanged (the stopping
rule's violation test stays in the block's own units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.recovery.prox import soft_threshold
from repro.recovery.result import RecoveryResult

__all__ = [
    "ConstraintBlock",
    "PdhgSettings",
    "RELAXATION",
    "solve_l1_constrained",
    "step_sizes",
    "update_primal_weight",
]

Vector = np.ndarray

# Share of the measured log(dual move / primal move) that each check moves
# log w by.  Measured with block dual steps and rho = 1.5 on the first
# window of each SMALL_SCALE record at CR 50/75/81 (mean iterations,
# normal / hybrid): 0.1 386 / 97, 0.2 367 / 106, 0.3 375 / 111, 0.5
# 390 / 120, 1.0 807 / 148 with two normal-CS windows at CR 81 stopped
# unconverged at the 4,000 cap.
_WEIGHT_SMOOTHING = 0.2

# Relaxation rho of both PDHG loops; the iteration converges for any rho in
# (0, 2).  Measured with block dual steps on the first window of each
# SMALL_SCALE record at CR 50/75/81 (mean iterations, normal / hybrid):
# 1.0 519 / 146, 1.5 367 / 106, 1.9 342 / 103; at 1.95 three normal-CS
# windows at CR 81 diverged to NaN.  1.9 saves under 7% next to that
# edge, so 1.5 stays.  The kernel relaxes the primal as
# (alpha^ + alpha_bar)/2, which is alpha + rho (alpha^ - alpha) only at 1.5.
RELAXATION = 1.5


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


@dataclass(frozen=True)
class PdhgSettings:
    """Iteration controls for :func:`solve_l1_constrained`.

    ``tol`` bounds both the fixed-point residual ``||alpha^ - alpha||``
    and the constraint violation at the accepted solution, each relative
    to ``max(||alpha^||, 1)``; ``check_every`` sets how often the
    (slightly costly) convergence test runs.
    """

    max_iter: int = 4000
    tol: float = 1e-4
    check_every: int = 25

    def __post_init__(self) -> None:
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.check_every <= 0:
            raise ValueError("check_every must be positive")


def step_sizes(lipschitz_sq: float, weight: float) -> Tuple[float, float]:
    """``(tau, sigma)`` for primal weight ``weight``: ``tau = eta/weight`` and
    ``sigma = eta * weight`` with ``eta = 1/sqrt(lipschitz_sq)``, so that
    ``tau * sigma * L^2 = 1`` whatever the weight.  With block steps
    ``L^2`` is the block count ``N``, the squared norm bound of the
    block-normalised operator ``(K_i/||K_i||)_i``."""
    eta = 1.0 / math.sqrt(lipschitz_sq)
    return eta / weight, eta * weight


def update_primal_weight(weight: float, dual_move: float, primal_move: float) -> float:
    """Move ``log weight`` toward ``log(dual_move / primal_move)``.

    ``dual_move`` and ``primal_move`` are the norms of the stacked duals'
    and of the primal's change since the previous check.  Balancing them
    puts both on the same scale, whatever the amplitude of the data; a
    zero move carries no information and leaves the weight as it is.
    """
    if dual_move <= 0.0 or primal_move <= 0.0:
        return weight
    return math.exp(
        _WEIGHT_SMOOTHING * math.log(dual_move / primal_move)
        + (1.0 - _WEIGHT_SMOOTHING) * math.log(weight)
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
        Starting point (defaults to zero).

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

        check = iterations % settings.check_every == 0
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
