"""Step rules of the Chambolle-Pock primal-dual hybrid gradient (PDHG) loop.

The paper's Eq. 1 and its normal-CS baseline are problems of the form::

    min_alpha  ||alpha||_1 + sum_i f_i(K_i alpha)

with each ``f_i`` the indicator of a simple convex set: an L2 ball in
measurement space and, for Eq. 1, a box in signal space.  The SDPT3
conic solve is replaced by a first-order method that finds the same
optimum of the same convex problem (DESIGN.md §2).  The production loop
is :func:`repro.recovery.eq1.solve_eq1`; the generic, block-at-a-time
engine it is checked against lives with the tests
(``tests/recovery/pdhg_oracle.py``).  Both import their settings and
step rules from here.

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
from typing import Tuple

__all__ = [
    "PdhgSettings",
    "RELAXATION",
    "step_sizes",
    "update_primal_weight",
]

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
class PdhgSettings:
    """Iteration controls of the Eq. 1 PDHG loop.

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
