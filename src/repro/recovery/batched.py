"""Batched recovery: vectorized ADMM/BSBL over stacks of windows.

Every window of a record (and every window of every record at one sweep
grid cell) solves against the *same* composed operator ``A = Φ Ψ``.  The
per-window solvers spend their time in matrix-vector products with that
shared ``A``; stacking ``k`` windows' measurement vectors as the columns
of one right-hand-side matrix turns each iteration's ``k`` GEMV calls
into a single GEMM — far better BLAS arithmetic intensity for identical
per-column math.

The vectorized engines mirror their scalar siblings
iteration-for-iteration:

* :func:`solve_bpdn_admm_batch` — the BPDN path of
  :func:`repro.recovery.admm.solve_bpdn_admm`, through the cached
  ``I + A^T A`` factorization;
* :func:`solve_bsbl_batch` / :func:`solve_bsbl_dequant_batch` — the
  BSBL-BO EM of :mod:`repro.recovery.bsbl`, one stack of ``m x m``
  factorizations per iteration.

**Convergence masking:** each column tracks the scalar solver's own
stopping rule; a converged column is frozen at its current iterate and
compacted out of the active stack, so late stragglers never perturb (or
pay for) finished windows.  Because the per-column arithmetic is the
scalar solver's arithmetic, a batched solve agrees with the per-window
loop to BLAS rounding (~1e-13); the differential test suite pins the
agreement at 1e-8.

Operator state comes straight from the shared :class:`CsProblem`
(``problem.a``, ``problem.admm_factor()``), so every engine solves
against the same cached objects as the scalar solvers.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve

from repro.recovery.bsbl import (
    BsblSettings,
    ar1_estimate,
    bo_gamma_factor,
    check_variance,
    measurement_estep,
)
from repro.recovery.problem import CsProblem
from repro.recovery.prox import soft_threshold
from repro.recovery.result import RecoveryResult

__all__ = [
    "stack_measurements",
    "solve_bpdn_admm_batch",
    "solve_bsbl_batch",
    "solve_bsbl_dequant_batch",
]

#: Fraction of the active stack that must be frozen (converged) before
#: the ADMM engine pays for a compaction copy.  Compacting on every
#: convergence event copied the whole active stack each time one window
#: finished; deferring until a quarter is frozen bounds the wasted work
#: (frozen columns iterate harmlessly — the math is column-independent
#: and their results were recorded at freeze time) while keeping the
#: GEMM width shrinking.  The Bayesian engine compacts immediately: its
#: per-column E-step is an ``m x m`` factorization plus an ``O(m^2 n)``
#: triangular solve, so carrying a frozen column even one extra
#: iteration costs more than the copy.
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


def _bsbl_overrides(
    bsbl: Optional[BsblSettings],
    max_iter: Optional[int],
    tol: Optional[float],
) -> BsblSettings:
    """EM settings with the engine-level iteration overrides applied."""
    settings = bsbl or BsblSettings()
    updates: dict = {}
    if max_iter is not None:
        updates["max_iter"] = max_iter
    if tol is not None:
        updates["tol"] = tol
    return replace(settings, **updates) if updates else settings


def _solve_bsbl_stack(
    problem: CsProblem,
    y_stack: np.ndarray,
    noise_var: float,
    c_stack: Optional[np.ndarray],
    quant_var: Optional[float],
    bsbl: BsblSettings,
    solver: str,
    info: dict,
) -> List[RecoveryResult]:
    """The batched BSBL-BO EM loop over a stack of windows.

    Mirrors ``repro.recovery.bsbl._em_measurement_space``
    column-for-column: each iteration is one
    :func:`~repro.recovery.bsbl.measurement_estep` over the active
    windows — a stack of ``m x m`` Cholesky factors — then the shared BO
    gamma rule and AR(1) correlation re-estimate, with
    the engine's usual convergence masking: a converged window is frozen
    and compacted out of the active stack.  The evidence bookkeeping
    (scalar ``objective_history``) is skipped; it never feeds back into
    the iteration.  The per-window arithmetic is the scalar loop's
    (measured: bit-identical results).
    """
    a = problem.a
    n = problem.n
    k = y_stack.shape[1]
    blen = bsbl.block_len
    g = bsbl.blocks_for(n)

    gamma = np.ones((k, g))
    r = np.zeros(k)
    mu = np.zeros((k, n))
    y_act = y_stack.T
    c_act = c_stack

    final = np.empty_like(mu)
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    active = np.arange(k)

    for it in range(1, bsbl.max_iter + 1):
        mu_new, num, den, _ = measurement_estep(
            a, y_act, noise_var, c_act, quant_var, gamma, r
        )
        gamma_prev = gamma
        gamma = np.maximum(gamma * bo_gamma_factor(num, den), bsbl.gamma_floor)

        change = np.linalg.norm(mu_new - mu, axis=1)
        scale = np.maximum(np.linalg.norm(mu_new, axis=1), 1e-12)
        mu = mu_new

        done = change <= bsbl.tol * scale
        if np.any(done):
            cols = active[done]
            final[cols] = mu[done]
            iterations[cols] = it
            converged[cols] = True
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            mu = mu[keep]
            gamma = gamma[keep]
            gamma_prev = gamma_prev[keep]
            y_act = y_act[keep]
            if c_act is not None:
                c_act = c_act[keep]
            r = r[keep]

        if bsbl.learn_correlation and blen > 1:
            r = ar1_estimate(
                mu.reshape(-1, g, blen), gamma_prev, bsbl.corr_limit
            )

    if active.size:
        final[active] = mu
        iterations[active] = bsbl.max_iter

    return _finalize(
        problem, final.T, y_stack, iterations, converged, solver, info
    )


def solve_bsbl_batch(
    problem: CsProblem,
    ys: Sequence[np.ndarray],
    noise_var: float,
    *,
    bsbl: Optional[BsblSettings] = None,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
) -> List[RecoveryResult]:
    """Vectorized :func:`~repro.recovery.bsbl.solve_bsbl` over a stack.

    Each EM iteration is one stack of ``m x m`` Cholesky factorizations
    over the active windows.
    """
    check_variance(noise_var, "noise_var")
    y_stack = stack_measurements(problem, ys)
    em = _bsbl_overrides(bsbl, max_iter, tol)
    info = {
        "noise_var": float(noise_var),
        "block_len": float(em.block_len),
        "batch": float(y_stack.shape[1]),
    }
    return _solve_bsbl_stack(
        problem, y_stack, noise_var, None, None, em, "bsbl-bo-batch", info
    )


def solve_bsbl_dequant_batch(
    problem: CsProblem,
    ys: Sequence[np.ndarray],
    noise_var: float,
    x_mids: Sequence[np.ndarray],
    quant_var: float,
    *,
    bsbl: Optional[BsblSettings] = None,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
) -> List[RecoveryResult]:
    """Vectorized :func:`~repro.recovery.bsbl.solve_bsbl_dequant`.

    ``x_mids`` holds one low-res cell-midpoint vector per window (same
    centered units as the solver domain).  The analysis transforms run
    per window — bit-identical to the scalar path — and the coefficient
    stack ``Ψ^T x_mid`` enters the shared E-step as
    pseudo-observations.
    """
    check_variance(noise_var, "noise_var")
    check_variance(quant_var, "quant_var")
    if len(x_mids) != len(ys):
        raise ValueError("need one x_mid vector per measurement window")
    y_stack = stack_measurements(problem, ys)
    em = _bsbl_overrides(bsbl, max_iter, tol)
    c_cols = []
    for j, x_mid in enumerate(x_mids):
        arr = np.asarray(x_mid, dtype=float)
        if arr.shape != (problem.n,):
            raise ValueError(
                f"window {j}: expected {problem.n} midpoints, got shape {arr.shape}"
            )
        c_cols.append(problem.basis.analyze(arr))
    c_stack = np.stack(c_cols, axis=0)
    info = {
        "noise_var": float(noise_var),
        "quant_var": float(quant_var),
        "block_len": float(em.block_len),
        "batch": float(y_stack.shape[1]),
    }
    return _solve_bsbl_stack(
        problem, y_stack, noise_var, c_stack, quant_var, em,
        "bsbl-bo-dequant-batch", info,
    )
