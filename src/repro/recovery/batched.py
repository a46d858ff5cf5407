"""Batched recovery: vectorized ADMM-BPDN over stacks of windows.

Every window of a record (and every window of every record at one sweep
grid cell) solves against the *same* composed operator ``A = Φ Ψ``.  The
per-window solvers spend their time in matrix-vector products with that
shared ``A``; stacking ``k`` windows' measurement vectors as the columns
of one right-hand-side matrix turns each iteration's ``k`` GEMV calls
into a single GEMM — far better BLAS arithmetic intensity for identical
per-column math.

:func:`solve_bpdn_admm_batch` mirrors its scalar sibling
:func:`repro.recovery.admm.solve_bpdn_admm` iteration for iteration,
through the cached ``I + A^T A`` factorization.

**Convergence masking:** each column tracks the scalar solver's own
stopping rule; a converged column is frozen at its current iterate and
compacted out of the active stack, so late stragglers never perturb (or
pay for) finished windows.  Because the per-column arithmetic is the
scalar solver's arithmetic, a batched solve agrees with the per-window
loop to BLAS rounding (~1e-13); the differential test suite pins the
agreement at 1e-8.

Operator state comes straight from the shared :class:`CsProblem`
(``problem.a``, ``problem.admm_factor()``), so the batch solves
against the same cached objects as the scalar solver.
"""

# No entry point calls the batched ADMM engine.  It leaves src/ after the
# ROADMAP race "Batch the Eq. 1 kernel".
# reprolint: disable-file=RL105 -- kept for the batched Eq. 1 race

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np
from scipy.linalg import cho_solve

from repro.recovery.problem import CsProblem
from repro.recovery.prox import soft_threshold
from repro.recovery.result import RecoveryResult

__all__ = ["stack_measurements", "solve_bpdn_admm_batch"]

#: Fraction of the active stack that must be frozen (converged) before
#: the ADMM engine pays for a compaction copy.  Compacting on every
#: convergence event copied the whole active stack each time one window
#: finished; deferring until a quarter is frozen bounds the wasted work
#: (frozen columns iterate harmlessly — the math is column-independent
#: and their results were recorded at freeze time) while keeping the
#: GEMM width shrinking.
_COMPACT_FRACTION = 0.25


def stack_measurements(
    problem: CsProblem, ys: Sequence[np.ndarray]
) -> np.ndarray:
    """Validate and stack window measurements as columns, shape ``(m, k)``."""
    if len(ys) == 0:
        raise ValueError("need at least one measurement vector")
    cols = []
    for j, y in enumerate(ys):
        arr = np.asarray(y, dtype=float)
        if arr.shape != (problem.m,):
            raise ValueError(
                f"window {j}: expected {problem.m} measurements, got shape {arr.shape}"
            )
        cols.append(arr)
    return np.stack(cols, axis=1)


def _finalize(
    problem: CsProblem,
    alphas: np.ndarray,
    ys: np.ndarray,
    iterations: np.ndarray,
    converged: np.ndarray,
    solver: str,
    info: dict,
) -> List[RecoveryResult]:
    """Per-window :class:`RecoveryResult` objects from the solved stack."""
    residuals = np.linalg.norm(problem.a @ alphas - ys, axis=0)
    results = []
    for j in range(alphas.shape[1]):
        alpha = alphas[:, j].copy()
        results.append(
            RecoveryResult(
                alpha=alpha,
                x=problem.basis.synthesize(alpha),
                iterations=int(iterations[j]),
                converged=bool(converged[j]),
                residual_norm=float(residuals[j]),
                objective=float(np.sum(np.abs(alpha))),
                solver=solver,
                info=dict(info),
            )
        )
    return results


def _project_l2_ball_columns(
    v: np.ndarray, centers: np.ndarray, radius: float
) -> np.ndarray:
    """Column-wise Euclidean projection onto ``||z - center_j|| <= radius``.

    The vectorized twin of :func:`repro.recovery.prox.project_l2_ball`,
    including its "already inside (or at the center): return unchanged"
    branch, so each column matches the scalar projection bit-for-bit.
    """
    diff = v - centers
    norms = np.linalg.norm(diff, axis=0)
    out = v.copy()
    shrink = (norms > radius) & (norms > 0.0)
    if np.any(shrink):
        out[:, shrink] = centers[:, shrink] + diff[:, shrink] * (
            radius / norms[shrink]
        )
    return out


def solve_bpdn_admm_batch(
    problem: CsProblem,
    ys: Sequence[np.ndarray],
    sigma: float,
    *,
    rho: float = 1.0,
    max_iter: int = 3000,
    tol: float = 1e-5,
) -> List[RecoveryResult]:
    """Vectorized :func:`~repro.recovery.admm.solve_bpdn_admm` over a stack.

    The ``alpha``-step solves against the problem's *cached* Cholesky
    factor of ``I + A^T A`` with a multi-column right-hand side, so the
    whole stack costs one factorization ever (per process) and two
    triangular GEMM solves per iteration.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and non-negative, got {sigma!r}")
    if rho <= 0:
        raise ValueError("rho must be positive")
    y_stack = stack_measurements(problem, ys)
    k = y_stack.shape[1]
    a = problem.a
    chol = problem.admm_factor()

    w = np.zeros((problem.n, k))
    z = y_stack.copy()
    u_w = np.zeros_like(w)
    u_z = np.zeros_like(y_stack)

    final = np.empty_like(w)
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    active = np.arange(k)
    frozen = np.zeros(k, dtype=bool)
    y_act = y_stack  # full active set: the stack itself, no copy

    for it in range(1, max_iter + 1):
        ka = int(active.size)
        rhs = (w - u_w) + a.T @ (z - u_z)
        alpha = cho_solve(chol, rhs)
        a_alpha = a @ alpha
        w_new = soft_threshold(alpha + u_w, 1.0 / rho)
        z_new = _project_l2_ball_columns(a_alpha + u_z, y_act, sigma)
        # Each difference is computed once and reused for the dual
        # update and the residual norm.
        dw = alpha - w_new
        u_w += dw
        dz = a_alpha - z_new
        u_z += dz

        primal = np.sqrt(
            np.linalg.norm(dw, axis=0) ** 2 + np.linalg.norm(dz, axis=0) ** 2
        )
        dual = rho * np.sqrt(
            np.linalg.norm(w_new - w, axis=0) ** 2
            + np.linalg.norm(a.T @ (z_new - z), axis=0) ** 2
        )
        w, z = w_new, z_new
        scale = np.maximum(np.linalg.norm(w, axis=0), 1.0)

        done = (primal <= tol * scale) & (dual <= tol * scale)
        newly = done & ~frozen
        if np.any(newly):
            cols = active[newly]
            final[:, cols] = w[:, newly]
            iterations[cols] = it
            converged[cols] = True
            frozen = frozen | newly
        nfrozen = int(frozen.sum())
        if nfrozen == ka or nfrozen >= _COMPACT_FRACTION * ka:
            keep = ~frozen
            active = active[keep]
            if active.size == 0:
                break
            w = w[:, keep]
            z = z[:, keep]
            u_w = u_w[:, keep]
            u_z = u_z[:, keep]
            y_act = y_stack[:, active]
            frozen = np.zeros(active.size, dtype=bool)

    if active.size:
        left = ~frozen
        cols = active[left]
        if cols.size:
            final[:, cols] = w[:, left]
            iterations[cols] = max_iter

    info = {"rho": float(rho), "batch": float(k)}
    return _finalize(
        problem, final, y_stack, iterations, converged, "admm-bpdn-batch", info
    )
