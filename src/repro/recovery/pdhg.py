"""Chambolle-Pock primal-dual hybrid gradient (PDHG) engine.

Solves problems of the form::

    min_alpha  g(alpha) + sum_i f_i(K_i alpha)

with ``g`` prox-friendly (here: the L1 norm) and each ``f_i`` the indicator
of a simple convex set (here: an L2 ball in measurement space and/or a box
in signal space).  This is exactly the structure of the paper's Eq. 1 —
the SDPT3 conic solve is replaced by this first-order method, which finds
the same optimum of the same convex problem (DESIGN.md §2).

The iteration (Chambolle & Pock 2011, with over-relaxation ``theta = 1``)::

    u_i <- prox_{sigma f_i*}(u_i + sigma K_i alpha_bar)     (dual ascent)
    alpha+ <- prox_{tau g}(alpha - tau sum_i K_i^T u_i)     (primal descent)
    alpha_bar <- 2 alpha+ - alpha

where ``prox_{sigma f*}`` is evaluated through Moreau's identity from the
*projection* implementing ``prox_f``.  Step sizes satisfy
``tau * sigma * L^2 <= 1`` with ``L^2 = sum_i ||K_i||^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.recovery.prox import soft_threshold
from repro.recovery.result import RecoveryResult

__all__ = ["ConstraintBlock", "PdhgSettings", "solve_l1_constrained"]

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
        An upper bound on ``||K_i||^2`` (used for step sizing).
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

    ``tol`` bounds both the relative primal change and the scaled
    constraint violation at the accepted solution; ``check_every`` sets how
    often the (slightly costly) convergence test runs.
    """

    max_iter: int = 4000
    tol: float = 1e-4
    check_every: int = 25
    step_ratio: float = 1.0  # tau/sigma balance; 1.0 is the symmetric choice

    def __post_init__(self) -> None:
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.check_every <= 0:
            raise ValueError("check_every must be positive")
        if self.step_ratio <= 0:
            raise ValueError("step_ratio must be positive")


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
        convention the measurement-fidelity block goes first).
    """
    if not blocks:
        raise ValueError("need at least one constraint block")
    if n <= 0:
        raise ValueError("n must be positive")

    lip_sq = float(sum(b.opnorm_sq for b in blocks))
    if lip_sq <= 0:
        raise ValueError("operator norms must be positive")
    # tau * sigma * L^2 = 1 with tau/sigma = step_ratio.
    sigma = 1.0 / np.sqrt(lip_sq * settings.step_ratio)
    tau = settings.step_ratio * sigma

    alpha = np.zeros(n) if alpha0 is None else np.asarray(alpha0, dtype=float).copy()
    alpha_bar = alpha.copy()
    duals: List[Vector] = [np.zeros(b.out_dim) for b in blocks]

    converged = False
    iterations = 0
    # Scale for the relative-violation test: typical magnitude of the data.
    for iterations in range(1, settings.max_iter + 1):
        # Dual step with Moreau: prox_{sigma f*}(v) = v - sigma prox_{f/sigma}(v/sigma)
        # and for an indicator prox_{f/sigma} is the projection.
        for i, blk in enumerate(blocks):
            v = duals[i] + sigma * blk.forward(alpha_bar)
            duals[i] = v - sigma * blk.project(v / sigma)

        grad = np.zeros(n)
        for i, blk in enumerate(blocks):
            grad += blk.adjoint(duals[i])
        alpha_new = soft_threshold(alpha - tau * grad, tau)
        alpha_bar = 2.0 * alpha_new - alpha
        change = float(np.linalg.norm(alpha_new - alpha))
        alpha = alpha_new

        if iterations % settings.check_every == 0:
            scale = max(float(np.linalg.norm(alpha)), 1.0)
            feasible = all(
                blk.violation(blk.forward(alpha)) <= settings.tol * max(scale, 1.0)
                for blk in blocks
            )
            if feasible and change <= settings.tol * scale:
                converged = True
                break

    x = synthesize(alpha) if synthesize is not None else alpha.copy()
    first_violation = blocks[0].violation(blocks[0].forward(alpha))
    info = {
        "tau": float(tau),
        "sigma": float(sigma),
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
