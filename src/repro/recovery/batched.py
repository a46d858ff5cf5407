"""Batched recovery: vectorized FISTA/ADMM over stacks of windows.

Every window of a record (and every window of every record at one sweep
grid cell) solves against the *same* composed operator ``A = Φ Ψ``.  The
per-window solvers spend their time in matrix-vector products with that
shared ``A``; stacking ``k`` windows' measurement vectors as the columns
of one right-hand-side matrix turns each iteration's ``k`` GEMV calls
into a single GEMM — far better BLAS arithmetic intensity for identical
per-column math.

Two vectorized engines are provided, mirroring their scalar siblings
iteration-for-iteration:

* :func:`solve_fista_batch` — the LASSO path of
  :func:`repro.recovery.fista.solve_fista`;
* :func:`solve_bpdn_admm_batch` — the BPDN path of
  :func:`repro.recovery.admm.solve_bpdn_admm`, through the cached
  ``I + A^T A`` factorization.

**Convergence masking:** each column tracks the scalar solver's own
stopping rule; a converged column is frozen at its current iterate and
compacted out of the active stack, so late stragglers never perturb (or
pay for) finished windows.  Because the per-column arithmetic is the
scalar solver's arithmetic, a batched solve agrees with the per-window
loop to BLAS rounding (~1e-13); the differential test suite pins the
agreement at 1e-8.

**Warm starting:** :func:`recover_windows` chunks a record's windows into
stacks of ``batch_size`` and, when ``warm_start`` is on, seeds every
column of chunk ``c+1`` from the final solution of the last window of
chunk ``c`` — the most recent temporally-adjacent solution available
without serializing the batch.  :func:`recover_windows_loop` implements
the identical schedule window-by-window, which is both the benchmark
baseline and the differential-test reference.

**Backend seam:** the engines consume :mod:`repro.backend` (the ``xp``
namespace protocol) instead of numpy directly; every solver takes an
optional :class:`~repro.backend.BackendSettings`.  ``None`` or
NumPy/float64 is the exact path — ``xp`` *is* the numpy module there,
so results stay bit-identical to the pre-seam code — while float32 (or
a GPU backend) is the fast path, with its operator stack and ADMM
factorization pulled per ``(backend, precision)`` from
:func:`repro.recovery.opcache.operators_for`.  Results always return as
host float64 :class:`~repro.recovery.result.RecoveryResult` objects, so
warm-start carries and downstream metrics are backend-agnostic.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Optional, Sequence

from repro.backend import BackendSettings, HOST, ndarray, resolve
from repro.perf import lease_workspace, profiled
from repro.recovery.admm import solve_bpdn_admm
from repro.recovery.bsbl import (
    BsblSettings,
    ar1_estimate,
    bo_gamma_factor,
    initial_gamma,
    measurement_estep,
    solve_bsbl,
    solve_bsbl_dequant,
)
from repro.recovery.fista import solve_fista
from repro.recovery.opcache import OperatorSet, operators_for
from repro.recovery.problem import CsProblem
from repro.recovery.result import RecoveryResult

__backend_seam__ = True

__all__ = [
    "stack_measurements",
    "solve_fista_batch",
    "solve_bpdn_admm_batch",
    "solve_bsbl_batch",
    "solve_bsbl_dequant_batch",
    "solve_batch",
    "recover_windows",
    "recover_windows_loop",
]

#: Fraction of the active stack that must be frozen (converged) before
#: the convex engines pay for a compaction copy.  Compacting on every
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
    problem: CsProblem,
    ys: Sequence[ndarray],
    *,
    settings: Optional[BackendSettings] = None,
) -> Any:
    """Validate and stack window measurements as columns, shape ``(m, k)``.

    The stack lives on the settings' backend in the settings' dtype (the
    engine dtype policy — float64 on the default exact path).
    """
    if len(ys) == 0:
        raise ValueError("need at least one measurement vector")
    _, xp, dtype, _ = resolve(settings)
    cols = []
    for j, y in enumerate(ys):
        arr = xp.asarray(y, dtype=dtype)
        if arr.shape != (problem.m,):
            raise ValueError(
                f"window {j}: expected {problem.m} measurements, got shape {arr.shape}"
            )
        cols.append(arr)
    return xp.stack(cols, axis=1)


def _stack_alpha0(
    problem: CsProblem,
    alpha0: Optional[ndarray],
    k: int,
    xp: Any,
    dtype: Any,
) -> Any:
    """Initial coefficient stack, shape ``(n, k)``, in the engine dtype.

    ``alpha0`` may be ``None`` (cold start at zero), one ``(n,)`` vector
    (broadcast to every column — the chunk warm-start shape) or a full
    ``(n, k)`` stack.
    """
    if alpha0 is None:
        return xp.zeros((problem.n, k), dtype=dtype)
    arr = xp.asarray(alpha0, dtype=dtype)
    if arr.shape == (problem.n,):
        return xp.repeat(arr[:, None], k, axis=1)
    if arr.shape == (problem.n, k):
        return arr.copy()
    raise ValueError(
        f"alpha0 must have shape ({problem.n},) or ({problem.n}, {k})"
    )


def _finalize(
    ops: OperatorSet,
    alphas: Any,
    ys: Any,
    iterations: Any,
    converged: Any,
    solver: str,
    info: dict,
) -> List[RecoveryResult]:
    """Per-window :class:`RecoveryResult` objects from the solved stack.

    The device→host boundary: whatever backend/dtype solved the stack,
    results come back as float64 numpy arrays (coefficients, synthesized
    windows, norms), so callers never see backend types.
    """
    problem = ops.problem
    xp = ops.backend.xp
    host = HOST.xp
    residuals = ops.backend.to_numpy(
        xp.linalg.norm(ops.a @ alphas - ys, axis=0)
    )
    alphas_host = host.asarray(
        ops.backend.to_numpy(alphas), dtype=host.float64
    )
    iterations = ops.backend.to_numpy(iterations)
    converged = ops.backend.to_numpy(converged)
    results = []
    for j in range(alphas_host.shape[1]):
        alpha = alphas_host[:, j].copy()
        results.append(
            RecoveryResult(
                alpha=alpha,
                x=problem.basis.synthesize(alpha),
                iterations=int(iterations[j]),
                converged=bool(converged[j]),
                residual_norm=float(residuals[j]),
                objective=float(host.sum(host.abs(alpha))),
                solver=solver,
                info=dict(info),
            )
        )
    return results


@profiled("recovery.fista_batch")
def solve_fista_batch(
    problem: CsProblem,
    ys: Sequence[ndarray],
    lam: float,
    *,
    max_iter: int = 2000,
    tol: float = 1e-6,
    alpha0: Optional[ndarray] = None,
    settings: Optional[BackendSettings] = None,
) -> List[RecoveryResult]:
    """Vectorized :func:`~repro.recovery.fista.solve_fista` over a stack.

    One GEMM pair per iteration over the active columns; Nesterov's
    ``t_k`` sequence is data-independent, so it is shared by every
    column exactly as in the scalar solver.  Per-iteration temporaries
    live in a leased workspace (fresh allocations only while the lease
    is cold), with the iterate/momentum stacks double-buffered by
    iteration parity.  A converged column is frozen — its result and
    iteration count recorded immediately — but the compaction copy is
    deferred until :data:`_COMPACT_FRACTION` of the stack is frozen.
    Returns one result per input window, in order.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    backend, xp, dtype, settings = resolve(settings)
    y_stack = stack_measurements(problem, ys, settings=settings)
    k = y_stack.shape[1]
    ops = operators_for(problem, settings)
    a = ops.a
    a_t = a.T
    m, n = a.shape
    step = 1.0 / ops.opnorm_sq()

    alpha = _stack_alpha0(problem, alpha0, k, xp, dtype)
    momentum = alpha.copy()
    t_k = 1.0

    # Per-window bookkeeping; ``frozen`` marks converged columns of the
    # current active stack whose compaction is still pending.
    final = xp.empty_like(alpha)
    iterations = xp.zeros(k, dtype=xp.int64)
    converged = xp.zeros(k, dtype=xp.bool_)
    active = xp.arange(k)
    frozen = xp.zeros(k, dtype=xp.bool_)
    y_act = y_stack  # full active set: the stack itself, no copy

    with lease_workspace(settings, f"fista:{m}x{n}") as ws:
        for it in range(1, max_iter + 1):
            ka = int(active.size)
            resid = ws.buf("resid", (m, ka), dtype)
            backend.matmul(a, momentum, out=resid)
            resid -= y_act
            grad = ws.buf("grad", (n, ka), dtype)
            backend.matmul(a_t, resid, out=grad)
            prox = ws.buf("prox", (n, ka), dtype)
            xp.multiply(grad, step, out=prox)
            xp.subtract(momentum, prox, out=prox)
            # alpha persists into the next iteration (the momentum and
            # change terms read it), so the new iterate alternates
            # between two named buffers by iteration parity.
            alpha_new = ws.buf(
                "alpha_a" if it % 2 else "alpha_b", (n, ka), dtype
            )
            backend.soft_threshold(prox, step * lam, out=alpha_new)
            t_next = (1.0 + xp.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
            diff = ws.buf("diff", (n, ka), dtype)
            xp.subtract(alpha_new, alpha, out=diff)
            change = xp.linalg.norm(diff, axis=0)
            # momentum was last read computing resid/prox above, so its
            # buffer is safe to overwrite in place here.
            mom_new = ws.buf("momentum", (n, ka), dtype)
            xp.multiply(diff, (t_k - 1.0) / t_next, out=mom_new)
            xp.add(alpha_new, mom_new, out=mom_new)
            scale = xp.maximum(xp.linalg.norm(alpha_new, axis=0), 1.0)
            alpha = alpha_new
            momentum = mom_new
            t_k = t_next

            done = change <= tol * scale
            newly = done & ~frozen
            if xp.any(newly):
                cols = active[newly]
                final[:, cols] = alpha[:, newly]
                iterations[cols] = it
                converged[cols] = True
                frozen = frozen | newly
            nfrozen = int(frozen.sum())
            if nfrozen == ka or nfrozen >= _COMPACT_FRACTION * ka:
                keep = ~frozen
                active = active[keep]
                if active.size == 0:
                    break
                # Fancy indexing yields owned copies, ending any
                # aliasing with the parity buffers above.
                alpha = alpha[:, keep]
                momentum = momentum[:, keep]
                y_act = y_stack[:, active]
                frozen = xp.zeros(active.size, dtype=xp.bool_)

    if active.size:
        left = ~frozen
        cols = active[left]
        if cols.size:
            final[:, cols] = alpha[:, left]
            iterations[cols] = max_iter

    info = {
        "lam": float(lam),
        "step": float(step),
        "batch": float(k),
        "backend": settings.label,
    }
    return _finalize(
        ops, final, y_stack, iterations, converged, "fista-lasso-batch", info
    )


def _project_l2_ball_columns(
    xp: Any,
    v: Any,
    centers: Any,
    radius: float,
    out: Any = None,
    diff_buf: Any = None,
) -> Any:
    """Column-wise Euclidean projection onto ``||z - center_j|| <= radius``.

    The vectorized twin of :func:`repro.recovery.prox.project_l2_ball`,
    including its "already inside (or at the center): return unchanged"
    branch, so each column matches the scalar projection bit-for-bit.
    ``out``/``diff_buf`` route the result and the ``v - centers``
    temporary into workspace buffers; both start as full copies/
    overwrites, so the values are identical to the allocating form.
    """
    if diff_buf is None:
        diff = v - centers
    else:
        diff = diff_buf
        xp.subtract(v, centers, out=diff)
    norms = xp.linalg.norm(diff, axis=0)
    if out is None:
        out = v.copy()
    else:
        out[...] = v
    shrink = (norms > radius) & (norms > 0.0)
    if xp.any(shrink):
        out[:, shrink] = centers[:, shrink] + diff[:, shrink] * (
            radius / norms[shrink]
        )
    return out


@profiled("recovery.admm_batch")
def solve_bpdn_admm_batch(
    problem: CsProblem,
    ys: Sequence[ndarray],
    sigma: float,
    *,
    rho: float = 1.0,
    max_iter: int = 3000,
    tol: float = 1e-5,
    alpha0: Optional[ndarray] = None,
    settings: Optional[BackendSettings] = None,
) -> List[RecoveryResult]:
    """Vectorized :func:`~repro.recovery.admm.solve_bpdn_admm` over a stack.

    The ``alpha``-step solves against the *cached* Cholesky factor of
    ``I + A^T A`` — held per ``(backend, precision)`` by the operator
    cache — with a multi-column right-hand side, so the whole stack
    costs one factorization ever (per process and precision) and two
    triangular GEMM solves per iteration.
    """
    if sigma < 0:
        raise ValueError("sigma cannot be negative")
    if rho <= 0:
        raise ValueError("rho must be positive")
    backend, xp, dtype, settings = resolve(settings)
    y_stack = stack_measurements(problem, ys, settings=settings)
    k = y_stack.shape[1]
    ops = operators_for(problem, settings)
    a = ops.a
    a_t = a.T
    m, n = a.shape

    alpha = _stack_alpha0(problem, alpha0, k, xp, dtype)
    w = alpha.copy()
    z = y_stack.copy()
    u_w = xp.zeros_like(alpha)
    u_z = xp.zeros_like(y_stack)

    final = xp.empty_like(alpha)
    iterations = xp.zeros(k, dtype=xp.int64)
    converged = xp.zeros(k, dtype=xp.bool_)
    active = xp.arange(k)
    frozen = xp.zeros(k, dtype=xp.bool_)
    y_act = y_stack  # full active set: the stack itself, no copy

    with lease_workspace(settings, f"admm:{m}x{n}") as ws:
        for it in range(1, max_iter + 1):
            ka = int(active.size)
            # rhs = (w - u_w) + a.T @ (z - u_z), accumulated in place.
            zt = ws.buf("zt", (m, ka), dtype)
            xp.subtract(z, u_z, out=zt)
            rhs = ws.buf("rhs", (n, ka), dtype)
            backend.matmul(a_t, zt, out=rhs)
            wd = ws.buf("wd", (n, ka), dtype)
            xp.subtract(w, u_w, out=wd)
            xp.add(wd, rhs, out=rhs)
            # The triangular solves allocate their solution internally
            # (LAPACK copies a C-ordered rhs regardless); rhs itself is
            # dead after this call, hence overwrite_b.
            alpha = ops.cho_solve(rhs, overwrite_b=True)
            a_alpha = ws.buf("a_alpha", (m, ka), dtype)
            backend.matmul(a, alpha, out=a_alpha)
            wsum = ws.buf("wsum", (n, ka), dtype)
            xp.add(alpha, u_w, out=wsum)
            # w and z persist across iterations (read at the top and in
            # the dual residual), so their successors alternate between
            # parity-named buffers.
            w_new = ws.buf("w_a" if it % 2 else "w_b", (n, ka), dtype)
            backend.soft_threshold(wsum, 1.0 / rho, out=w_new)
            zsum = ws.buf("zsum", (m, ka), dtype)
            xp.add(a_alpha, u_z, out=zsum)
            z_new = _project_l2_ball_columns(
                xp,
                zsum,
                y_act,
                sigma,
                out=ws.buf("z_a" if it % 2 else "z_b", (m, ka), dtype),
                diff_buf=ws.buf("zdiff", (m, ka), dtype),
            )
            # Each difference is computed once and reused for the dual
            # update and the residual norm (identical values to the
            # original's two evaluations of the same expression).
            dw = ws.buf("dw", (n, ka), dtype)
            xp.subtract(alpha, w_new, out=dw)
            u_w += dw
            dz = ws.buf("dz", (m, ka), dtype)
            xp.subtract(a_alpha, z_new, out=dz)
            u_z += dz

            primal = xp.sqrt(
                xp.linalg.norm(dw, axis=0) ** 2
                + xp.linalg.norm(dz, axis=0) ** 2
            )
            zdel = ws.buf("zdel", (m, ka), dtype)
            xp.subtract(z_new, z, out=zdel)
            atzd = ws.buf("atzd", (n, ka), dtype)
            backend.matmul(a_t, zdel, out=atzd)
            wdel = ws.buf("wdel", (n, ka), dtype)
            xp.subtract(w_new, w, out=wdel)
            dual = rho * xp.sqrt(
                xp.linalg.norm(wdel, axis=0) ** 2
                + xp.linalg.norm(atzd, axis=0) ** 2
            )
            w, z = w_new, z_new
            scale = xp.maximum(xp.linalg.norm(w, axis=0), 1.0)

            done = (primal <= tol * scale) & (dual <= tol * scale)
            newly = done & ~frozen
            if xp.any(newly):
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
                frozen = xp.zeros(active.size, dtype=xp.bool_)

    if active.size:
        left = ~frozen
        cols = active[left]
        if cols.size:
            final[:, cols] = w[:, left]
            iterations[cols] = max_iter

    info = {"rho": float(rho), "batch": float(k), "backend": settings.label}
    return _finalize(
        ops, final, y_stack, iterations, converged, "admm-bpdn-batch", info
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


@profiled("recovery.bsbl_batch")
def _solve_bsbl_stack(
    ops: OperatorSet,
    y_stack: Any,
    noise_var: float,
    c_stack: Any,
    quant_var: Optional[float],
    bsbl: BsblSettings,
    alpha0: Optional[ndarray],
    solver: str,
    info: dict,
) -> List[RecoveryResult]:
    """The batched BSBL-BO EM loop over a stack of windows.

    Mirrors ``repro.recovery.bsbl._em_measurement_space``
    column-for-column: each iteration is one
    :func:`~repro.recovery.bsbl.measurement_estep` over the active
    windows — a stack of ``m x m`` Cholesky factors whose ``(k, m, n)``
    and ``(k, m, m + n + 1)`` temporaries live in a leased workspace —
    then the shared BO gamma rule and AR(1) correlation re-estimate, with
    the engine's usual convergence masking: a converged window is frozen
    and compacted out of the active stack.  The evidence bookkeeping
    (scalar ``objective_history``) is skipped; it never feeds back into
    the iteration.  The per-window arithmetic is the scalar loop's
    (measured: bit-identical results).
    """
    problem = ops.problem
    backend = ops.backend
    xp = backend.xp
    dtype = y_stack.dtype
    m, n = ops.a.shape
    k = y_stack.shape[1]
    blen = bsbl.block_len
    g = bsbl.blocks_for(n)

    alpha0_stack = (
        None if alpha0 is None else _stack_alpha0(problem, alpha0, k, xp, dtype)
    )
    gamma = xp.asarray(initial_gamma(xp, alpha0_stack, k, g, blen), dtype=dtype)
    r = xp.zeros(k, dtype=dtype)
    mu = xp.zeros((k, n), dtype=dtype)
    y_act = y_stack.T
    c_act = c_stack

    final = xp.empty_like(mu)
    iterations = xp.zeros(k, dtype=xp.int64)
    converged = xp.zeros(k, dtype=xp.bool_)
    active = xp.arange(k)

    with lease_workspace(ops.settings, f"bsbl:{m}x{n}:b{blen}") as ws:
        for it in range(1, bsbl.max_iter + 1):
            mu_new, num, den, _ = measurement_estep(
                backend, ws, ops.a, y_act, noise_var, c_act, quant_var,
                gamma, r,
            )
            gamma_prev = gamma
            gamma = xp.maximum(
                gamma * bo_gamma_factor(xp, num, den), bsbl.gamma_floor
            )

            change = xp.linalg.norm(mu_new - mu, axis=1)
            scale = xp.maximum(xp.linalg.norm(mu_new, axis=1), 1e-12)
            mu = mu_new

            done = change <= bsbl.tol * scale
            if xp.any(done):
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
                    xp, mu.reshape(-1, g, blen), gamma_prev, bsbl.corr_limit
                )

    if active.size:
        final[active] = mu
        iterations[active] = bsbl.max_iter

    return _finalize(
        ops, final.T, y_stack, iterations, converged, solver, info
    )


def solve_bsbl_batch(
    problem: CsProblem,
    ys: Sequence[ndarray],
    noise_var: float,
    *,
    bsbl: Optional[BsblSettings] = None,
    alpha0: Optional[ndarray] = None,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
    settings: Optional[BackendSettings] = None,
) -> List[RecoveryResult]:
    """Vectorized :func:`~repro.recovery.bsbl.solve_bsbl` over a stack.

    The operator ``A`` comes from the operator cache per ``(backend,
    precision)``; each EM iteration is one stack of ``m x m`` Cholesky
    factorizations over the active windows.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    _, _, _, settings = resolve(settings)
    y_stack = stack_measurements(problem, ys, settings=settings)
    ops = operators_for(problem, settings)
    em = _bsbl_overrides(bsbl, max_iter, tol)
    info = {
        "noise_var": float(noise_var),
        "block_len": float(em.block_len),
        "batch": float(y_stack.shape[1]),
        "backend": settings.label,
    }
    return _solve_bsbl_stack(
        ops, y_stack, noise_var, None, None, em, alpha0, "bsbl-bo-batch", info
    )


def solve_bsbl_dequant_batch(
    problem: CsProblem,
    ys: Sequence[ndarray],
    noise_var: float,
    x_mids: Sequence[ndarray],
    quant_var: float,
    *,
    bsbl: Optional[BsblSettings] = None,
    alpha0: Optional[ndarray] = None,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
    settings: Optional[BackendSettings] = None,
) -> List[RecoveryResult]:
    """Vectorized :func:`~repro.recovery.bsbl.solve_bsbl_dequant`.

    ``x_mids`` holds one low-res cell-midpoint vector per window (same
    centered units as the solver domain).  The analysis transforms run
    per window on the host — bit-identical to the scalar path — and the
    coefficient stack ``Ψ^T x_mid`` enters the shared E-step as
    pseudo-observations.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    if quant_var <= 0:
        raise ValueError("quant_var must be positive")
    if len(x_mids) != len(ys):
        raise ValueError("need one x_mid vector per measurement window")
    _, xp, dtype, settings = resolve(settings)
    y_stack = stack_measurements(problem, ys, settings=settings)
    ops = operators_for(problem, settings)
    em = _bsbl_overrides(bsbl, max_iter, tol)
    host = HOST.xp
    c_cols = []
    for j, x_mid in enumerate(x_mids):
        arr = host.asarray(x_mid, dtype=host.float64)
        if arr.shape != (problem.n,):
            raise ValueError(
                f"window {j}: expected {problem.n} midpoints, got shape {arr.shape}"
            )
        c_cols.append(problem.basis.analyze(arr))
    c_stack = xp.asarray(host.stack(c_cols, axis=0), dtype=dtype)
    info = {
        "noise_var": float(noise_var),
        "quant_var": float(quant_var),
        "block_len": float(em.block_len),
        "batch": float(y_stack.shape[1]),
        "backend": settings.label,
    }
    return _solve_bsbl_stack(
        ops, y_stack, noise_var, c_stack, quant_var, em, alpha0,
        "bsbl-bo-dequant-batch", info,
    )


def solve_batch(
    problem: CsProblem,
    ys: Sequence[ndarray],
    *,
    method: str = "admm",
    sigma: Optional[float] = None,
    lam: Optional[float] = None,
    noise_var: Optional[float] = None,
    x_mids: Optional[Sequence[ndarray]] = None,
    quant_var: Optional[float] = None,
    bsbl: Optional[BsblSettings] = None,
    alpha0: Optional[ndarray] = None,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
    settings: Optional[BackendSettings] = None,
) -> List[RecoveryResult]:
    """One batched solve over a window stack, dispatching on ``method``.

    ``method="admm"`` solves BPDN (needs ``sigma``); ``method="fista"``
    solves the LASSO (needs ``lam``); ``method="bsbl"`` runs the
    Bayesian family (needs ``noise_var``) and ``method="bsbl-dequant"``
    additionally takes the low-res channel (``x_mids``, ``quant_var``).
    Unset iteration controls fall back to each solver's own defaults.
    """
    kwargs: dict = {"settings": settings}
    if max_iter is not None:
        kwargs["max_iter"] = max_iter
    if tol is not None:
        kwargs["tol"] = tol
    if method == "admm":
        if sigma is None:
            raise ValueError("method 'admm' needs sigma")
        return solve_bpdn_admm_batch(problem, ys, sigma, alpha0=alpha0, **kwargs)
    if method == "fista":
        if lam is None:
            raise ValueError("method 'fista' needs lam")
        return solve_fista_batch(problem, ys, lam, alpha0=alpha0, **kwargs)
    if method == "bsbl":
        if noise_var is None:
            raise ValueError("method 'bsbl' needs noise_var")
        return solve_bsbl_batch(
            problem, ys, noise_var, bsbl=bsbl, alpha0=alpha0, **kwargs
        )
    if method == "bsbl-dequant":
        if noise_var is None:
            raise ValueError("method 'bsbl-dequant' needs noise_var")
        if x_mids is None or quant_var is None:
            raise ValueError("method 'bsbl-dequant' needs x_mids and quant_var")
        return solve_bsbl_dequant_batch(
            problem, ys, noise_var, x_mids, quant_var,
            bsbl=bsbl, alpha0=alpha0, **kwargs,
        )
    raise ValueError(f"unknown batch method {method!r}")


def _chunks(count: int, size: int):
    for start in range(0, count, size):
        yield range(start, min(start + size, count))


def recover_windows(
    problem: CsProblem,
    ys: Sequence[ndarray],
    *,
    method: str = "admm",
    sigma: Optional[float] = None,
    lam: Optional[float] = None,
    noise_var: Optional[float] = None,
    x_mids: Optional[Sequence[ndarray]] = None,
    quant_var: Optional[float] = None,
    bsbl: Optional[BsblSettings] = None,
    batch_size: int = 32,
    warm_start: bool = True,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
    settings: Optional[BackendSettings] = None,
) -> List[RecoveryResult]:
    """Solve a record's window sequence through the batched engine.

    Windows are grouped into stacks of ``batch_size``; with
    ``warm_start`` every column of a stack is seeded from the final
    solution of the *last window of the previous stack* (the newest
    solution that temporally precedes the whole stack).  The schedule is
    a pure function of the window sequence, so results are deterministic
    regardless of hardware or timing.  Warm-start carries are host
    float64 regardless of ``settings``; each chunk re-casts them to the
    engine dtype.  For ``method="bsbl-dequant"`` the per-window
    ``x_mids`` sequence is chunked in lockstep with ``ys``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if x_mids is not None and len(x_mids) != len(ys):
        raise ValueError("need one x_mid vector per measurement window")
    results: List[RecoveryResult] = []
    carry: Optional[ndarray] = None
    for chunk in _chunks(len(ys), batch_size):
        batch = [ys[j] for j in chunk]
        mids = None if x_mids is None else [x_mids[j] for j in chunk]
        alpha0 = carry if warm_start else None
        solved = solve_batch(
            problem,
            batch,
            method=method,
            sigma=sigma,
            lam=lam,
            noise_var=noise_var,
            x_mids=mids,
            quant_var=quant_var,
            bsbl=bsbl,
            alpha0=alpha0,
            max_iter=max_iter,
            tol=tol,
            settings=settings,
        )
        results.extend(solved)
        carry = solved[-1].alpha
    return results


def recover_windows_loop(
    problem: CsProblem,
    ys: Sequence[ndarray],
    *,
    method: str = "admm",
    sigma: Optional[float] = None,
    lam: Optional[float] = None,
    noise_var: Optional[float] = None,
    x_mids: Optional[Sequence[ndarray]] = None,
    quant_var: Optional[float] = None,
    bsbl: Optional[BsblSettings] = None,
    batch_size: int = 32,
    warm_start: bool = True,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
    fresh_problem: bool = False,
) -> List[RecoveryResult]:
    """The per-window reference loop for :func:`recover_windows`.

    Identical warm-start schedule (chunk boundaries included), one scalar
    solve per window.  This is the benchmark baseline and the
    differential-test oracle — including for the fast-path backends,
    which is why it takes no backend settings: the oracle is always the
    scalar float64 path.  ``fresh_problem=True`` additionally rebuilds
    the composed operator per window, reproducing the pre-cache cost
    model the benchmarks compare against.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if x_mids is not None and len(x_mids) != len(ys):
        raise ValueError("need one x_mid vector per measurement window")
    results: List[RecoveryResult] = []
    carry: Optional[ndarray] = None
    kwargs: dict = {}
    if max_iter is not None:
        kwargs["max_iter"] = max_iter
    if tol is not None:
        kwargs["tol"] = tol
    em = _bsbl_overrides(bsbl, max_iter, tol)
    for chunk in _chunks(len(ys), batch_size):
        chunk_carry = carry if warm_start else None
        for j in chunk:
            prob_arg = None if fresh_problem else problem
            if method == "admm":
                if sigma is None:
                    raise ValueError("method 'admm' needs sigma")
                result = solve_bpdn_admm(
                    problem.phi,
                    problem.basis,
                    ys[j],
                    sigma,
                    problem=prob_arg,
                    alpha0=chunk_carry,
                    **kwargs,
                )
            elif method == "fista":
                if lam is None:
                    raise ValueError("method 'fista' needs lam")
                result = solve_fista(
                    problem.phi,
                    problem.basis,
                    ys[j],
                    lam,
                    problem=prob_arg,
                    alpha0=chunk_carry,
                    **kwargs,
                )
            elif method == "bsbl":
                if noise_var is None:
                    raise ValueError("method 'bsbl' needs noise_var")
                result = solve_bsbl(
                    problem.phi,
                    problem.basis,
                    ys[j],
                    noise_var,
                    settings=em,
                    problem=prob_arg,
                    alpha0=chunk_carry,
                )
            elif method == "bsbl-dequant":
                if noise_var is None:
                    raise ValueError("method 'bsbl-dequant' needs noise_var")
                if x_mids is None or quant_var is None:
                    raise ValueError(
                        "method 'bsbl-dequant' needs x_mids and quant_var"
                    )
                result = solve_bsbl_dequant(
                    problem.phi,
                    problem.basis,
                    ys[j],
                    noise_var,
                    x_mids[j],
                    quant_var,
                    settings=em,
                    problem=prob_arg,
                    alpha0=chunk_carry,
                )
            else:
                raise ValueError(f"unknown batch method {method!r}")
            results.append(result)
        carry = results[-1].alpha
    return results
