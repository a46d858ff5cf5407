"""Block-sparse Bayesian learning (BSBL-BO) with Bayesian de-quantization.

The paper's Eq. 1 treats the coarsely quantized measurements as exact and
the low-res parallel path as a hard per-sample box.  The Bayesian family
implemented here instead models both channels statistically, following
Zhang & Rao's BSBL-BO (bound-optimization) algorithm:

.. math::

    y = A \\alpha + v, \\quad v \\sim N(0, \\lambda I), \\qquad
    \\alpha \\sim N(0, \\Gamma), \\quad
    \\Gamma = \\mathrm{blockdiag}(\\gamma_1 B, \\ldots, \\gamma_g B)

with ``A = Φ Ψ``, a fixed partition of the ``n`` wavelet coefficients
into ``g = n / block_len`` equal blocks, one nonnegative scale
``gamma_g`` per block and a shared intra-block correlation matrix ``B``
(AR(1) Toeplitz, optionally re-estimated each EM iteration).  The
posterior mean is the estimate; block scales are learned by the BO
fixed-point rule, which provably never increases the negative log
evidence for a fixed ``B`` (the property suite pins this).

**Measurement space.**  Each EM iteration works through one ``m x m``
system, as in the original BSBL-BO (Liu/Zhang et al., arXiv:1506.02154,
arXiv:1309.4136).  The prior precision ``D = \\Gamma^{-1}`` is
block-diagonal; rotating every block into the eigenbasis ``U`` of
``B^{-1}`` (one ``b x b`` ``eigh`` per iteration) makes it diagonal.
With ``F = A blockdiag(U) D^{-1/2}``, the Woodbury identity needs
only the Cholesky factor ``L`` of ``S = F F^T + \\lambda I`` and
``V = L^{-1} F``:

.. math::

    \\Sigma = M^{-1} = W D^{-1/2} (I - V^T V) D^{-1/2} W^T, \\qquad
    \\log|M| = \\textstyle\\sum \\log D_{jj} + 2 \\sum \\log L_{ii}
    - m \\log \\lambda

with ``M = D + A^T A / \\lambda`` and ``W = blockdiag(U)`` (``D`` in the
rotated basis).  The posterior mean ``mu = \\Sigma A^T y / \\lambda``
is ``W D^{-1/2} V^T L^{-1} y``, the BO update reads
``q = \\Gamma^{-1} mu`` and the diagonal blocks of ``\\Sigma`` from the
column norms of ``V``, so an iteration costs ``O(m^2 n)`` instead of the
``O(n^3)`` of a dense solve against ``M``.

**Bayesian de-quantization.**  The hybrid path's low-res samples pin each
signal value to a cell of ``d`` acquisition codes.  Instead of Eq. 1's
hard box, :func:`solve_bsbl_dequant` treats the cell midpoint as a noisy
observation of the signal with the cell's own quantization-noise variance
(``(d^2 - 1) / 12`` for a discrete uniform over ``d`` codes).  Because Ψ
is orthonormal this adds ``I / \\sigma_q^2`` to the block-diagonal prior
precision ``D`` and ``Ψ^T x_mid / \\sigma_q^2`` to ``b`` — the de-quantizer
is the *same* EM iteration, so both modes share one E-step
(:func:`measurement_estep`, also run by the batched loop in
:mod:`repro.recovery.batched`).

The measurement noise is the CS quantizer's own error,
``\\lambda = step^2 / 12`` (see :func:`measurement_noise_var` and the
receiver's ``sigma()`` rationale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.devtools.contracts import check_finite, check_shape
from repro.recovery.problem import CsProblem
from repro.recovery.result import RecoveryResult
from repro.wavelets.operators import SynthesisBasis

__all__ = [
    "BsblSettings",
    "measurement_noise_var",
    "lowres_cell_stats",
    "solve_bsbl",
    "solve_bsbl_dequant",
]

#: Positivity floor used wherever a ratio could divide by ~0.
_TINY = 1e-30


@dataclass(frozen=True)
class BsblSettings:
    """Knobs for the BSBL-BO expectation-maximization loop.

    Hashable (all-scalar, frozen) so it can ride inside
    :class:`repro.core.config.FrontEndConfig` as ``config.bsbl``.

    Attributes
    ----------
    block_len:
        Coefficients per block; must divide the window length.  The
        paper-scale windows (512/256/128) all work with the default 16,
        which matches the db4 subband granularity well.
    max_iter:
        EM iteration cap.
    tol:
        Relative posterior-mean change below which the loop stops.
    learn_correlation:
        Re-estimate the shared intra-block AR(1) correlation ``r`` from
        the posterior mean each iteration.  Off: ``B = I`` stays fixed,
        which is the setting under which the BO update is provably
        monotone (the property suite runs with it off for that reason).
    corr_limit:
        Clip for the learned ``|r|`` (keeps ``B`` well conditioned).
    gamma_floor:
        Lower clamp for block scales; blocks at the floor are effectively
        pruned without changing the iteration shape (batched and scalar
        paths stay aligned column-for-column).
    noise_scale:
        Multiplier on the quantization-noise standard deviation used to
        build ``lambda`` — the Bayesian analogue of ``sigma_safety``.
    """

    block_len: int = 16
    max_iter: int = 120
    tol: float = 1e-4
    learn_correlation: bool = True
    corr_limit: float = 0.95
    gamma_floor: float = 1e-12
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.block_len < 1:
            raise ValueError("block_len must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0.0 <= self.corr_limit < 1.0:
            raise ValueError("corr_limit must be in [0, 1)")
        if self.gamma_floor <= 0:
            raise ValueError("gamma_floor must be positive")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be positive")

    def blocks_for(self, n: int) -> int:
        """Number of blocks for an ``n``-coefficient window (validating)."""
        if n % self.block_len:
            raise ValueError(
                f"block_len {self.block_len} does not divide window length {n}"
            )
        return n // self.block_len


def measurement_noise_var(step: float, noise_scale: float = 1.0) -> float:
    """Per-measurement quantization-noise variance ``(scale * step)^2 / 12``.

    The CS quantizer's error is uniform in ``±step/2``; this is the same
    noise model behind the convex path's fidelity radius ``sigma()``,
    expressed as a variance for the Gaussian likelihood.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    return (noise_scale * step) ** 2 / 12.0


def lowres_cell_stats(
    lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Midpoints and variance of the low-res cells ``[lower, upper]``.

    ``lower``/``upper`` are the Eq.-1 box bounds on the acquisition-code
    grid (each cell spans ``d = upper - lower + 1`` integer codes).  The
    underlying code is discrete-uniform over the cell, so the observation
    is the midpoint with variance ``(d^2 - 1) / 12`` — floored at
    ``1/12`` (one acquisition LSB) because even an exact low-res sample
    was itself integerized from the analog signal.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape:
        raise ValueError("lower/upper must share a shape")
    width = upper - lower + 1.0
    if np.any(width < 1.0):
        raise ValueError("cells must span at least one code")
    mid = 0.5 * (lower + upper)
    var = float(np.mean((width * width - 1.0) / 12.0))
    return mid, max(var, 1.0 / 12.0)


def ar1_precision(r: np.ndarray, block_len: int) -> np.ndarray:
    """Closed-form inverse of the AR(1) Toeplitz block ``B[i, j] = r^|i-j|``.

    ``r`` is a stack of correlations, shape ``(k,)``; returns ``B^{-1}``,
    shape ``(k, b, b)``: the classical tridiagonal
    ``(1/(1-r^2)) tridiag(-r; 1, 1+r^2, ..., 1+r^2, 1; -r)``, exact, so
    no ``B`` is ever formed or factorized.
    """
    r = np.asarray(r)
    k = r.shape[0]
    b = int(block_len)
    if b == 1:
        return np.ones((k, 1, 1), dtype=r.dtype)
    idx = np.arange(b)
    binv = np.zeros((k, b, b), dtype=r.dtype)
    binv[:, idx, idx] = (1.0 + r * r)[:, None]
    binv[:, 0, 0] = 1.0
    binv[:, b - 1, b - 1] = 1.0
    binv[:, idx[:-1], idx[1:]] = -r[:, None]
    binv[:, idx[1:], idx[:-1]] = -r[:, None]
    return binv / (1.0 - r * r)[:, None, None]


def bo_gamma_factor(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The BO multiplicative update ``sqrt(num / den)``, guarded.

    ``num = q^T B q >= 0`` and ``den = tr(B H) > 0`` in exact arithmetic;
    the guards only protect against floating-point collapse of a dead
    block, and are shared verbatim by the scalar and batched loops so the
    two stay aligned elementwise.
    """
    safe_den = np.maximum(den, _TINY)
    return np.sqrt(np.maximum(num, 0.0) / safe_den)


def ar1_estimate(
    mub: np.ndarray, gamma: np.ndarray, corr_limit: float
) -> np.ndarray:
    """Per-window AR(1) correlation from posterior-mean blocks.

    ``mub`` has shape ``(k, g, b)`` and ``gamma`` ``(k, g)``; returns the
    clipped lag-1 correlation per window, shape ``(k,)`` — Zhang & Rao's
    practical ``B`` re-estimation from the scale-whitened empirical block
    covariance, reduced to its Toeplitz (lag-averaged) form.
    """
    inv_gamma = 1.0 / np.maximum(gamma, _TINY)
    diag = np.einsum("kgb,kgb,kg->k", mub, mub, inv_gamma)
    off = np.einsum("kgb,kgb,kg->k", mub[:, :, :-1], mub[:, :, 1:], inv_gamma)
    b = mub.shape[2]
    diag_mean = diag / b
    off_mean = off / max(b - 1, 1)
    raw = np.where(diag_mean > _TINY, off_mean / np.maximum(diag_mean, _TINY), 0.0)
    raw = np.where(np.isfinite(raw), raw, 0.0)
    return np.clip(raw, -corr_limit, corr_limit)


def check_variance(value: float, name: str) -> None:
    """Reject a variance that is not a finite positive number.

    A plain ``value <= 0`` guard lets NaN and inf through to a NaN
    posterior.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def cholesky_forward(t: np.ndarray, leaf: int = 32) -> np.ndarray:
    """Factor ``S = L L^T`` and overwrite ``X`` with ``L^{-1} X``, in place.

    ``t`` is a ``(k, m, m + p)`` stack laid out as ``[S | X]`` with ``S``
    symmetric positive definite; returns ``diag(L)``, shape ``(k, m)``.
    The ``S`` block is consumed.  Recursive and right-looking: the top
    ``h`` rows ``[S11 | S12 X1]`` solve to ``[L21^T | L11^{-1} X1]``, one
    GEMM with those rows downdates ``[S22 | X2]`` (Schur complement and
    right-hand side together), and the bottom rows recurse.  Only
    ``leaf``-sized blocks are factored and inverted directly, so nearly
    every flop of the ``O(m^3 + m^2 p)`` total is a matrix multiply
    (NumPy has no batched triangular solve).
    """
    m = t.shape[1]
    if m <= leaf:
        lower = np.linalg.cholesky(t[:, :, :m])
        t[:, :, m:] = np.matmul(np.linalg.inv(lower), t[:, :, m:])
        return np.diagonal(lower, axis1=1, axis2=2)
    h = m // 2
    top = cholesky_forward(t[:, :h], leaf)
    t[:, h:, h:] -= np.matmul(np.swapaxes(t[:, :h, h:m], 1, 2), t[:, :h, h:])
    bottom = cholesky_forward(t[:, h:, h:], leaf)
    return np.concatenate([top, bottom], axis=1)


def measurement_estep(
    a: np.ndarray,
    y: np.ndarray,
    noise_var: float,
    c_vec: Optional[np.ndarray],
    quant_var: Optional[float],
    gamma: np.ndarray,
    r: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One BSBL-BO E-step in measurement space for a stack of windows.

    ``a`` is the shared ``(m, n)`` operator ``A``; ``y`` ``(k, m)``,
    ``gamma`` ``(k, g)`` and ``r`` ``(k,)`` hold each window's
    measurements, block scales and AR(1) correlation; ``c_vec`` ``(k, n)``
    and ``quant_var`` are the de-quantization channel (``None`` for plain
    BSBL).  The prior precision ``D_i = B^{-1} / gamma_i + I / quant_var``
    is block-diagonal, and diagonal (``d``) in the eigenbasis ``U`` of
    ``B^{-1}`` (eigenvalues ``beta``).  With ``F = A W D^{-1/2}``
    (``W = blockdiag(U)``), one Cholesky factor ``L`` of
    ``S = F F^T + lambda I`` and ``V = L^{-1} F`` give, by Woodbury,
    ``Sigma = W D^{-1/2} (I - V^T V) D^{-1/2} W^T``.  The mean is taken
    in the data-space form ``mu = p + D^{-1} (A W)^T S^{-1} (y - A W p)``
    with ``p = D^{-1} W^T c / quant_var``, which never subtracts two
    large terms (``I - V^T V`` applied to ``D^{-1/2} b`` would, for
    blocks whose prior is much wider than the noise).

    Returns ``(mu, num, den, logdet)``: the posterior means ``(k, n)``;
    the BO numerator ``mu_i^T B^{-1} mu_i / gamma_i^2`` and denominator
    ``tr(B H_ii) = blen / gamma_i - tr(B^{-1} Sigma_ii) / gamma_i^2``,
    both ``(k, g)``; and ``log|Gamma M|`` per window, the evidence's
    determinant term, from ``log|M| = sum log d + log|S| - m log lambda``.
    The cost is ``O(k m^2 n)``.
    """
    m, n = a.shape
    k, g = gamma.shape
    blen = n // g
    inv_quant_var = 0.0 if c_vec is None else 1.0 / quant_var
    beta, u = np.linalg.eigh(ar1_precision(r, blen))
    d = beta[:, None, :] / gamma[:, :, None] + inv_quant_var
    scale = 1.0 / np.sqrt(d.reshape(k, n))

    aw = np.matmul(a.reshape(1, m * g, blen), u).reshape(k, m, n)
    # [S | F | z], factored in one pass into [. | V | L^{-1} z], where z is
    # the data the prior mean p does not explain.
    t = np.empty((k, m, m + n + 1))
    f = t[:, :, m : m + n]
    np.multiply(aw, scale[:, None, :], out=f)
    if c_vec is None:
        t[:, :, m + n] = y
    else:
        c_rot = np.einsum("kgb,kbc->kgc", c_vec.reshape(k, g, blen), u)
        prior_mu = (inv_quant_var * c_rot / d).reshape(k, n)
        t[:, :, m + n] = y - np.matmul(aw, prior_mu[:, :, None])[:, :, 0]
    np.matmul(f, np.swapaxes(f, 1, 2), out=t[:, :, :m])
    diag = np.arange(m)
    t[:, diag, diag] += noise_var
    chol_diag = cholesky_forward(t)
    v = f  # now L^{-1} F

    mu_rot = np.matmul(t[:, :, m + n][:, None, :], v)[:, 0] * scale
    if c_vec is not None:
        mu_rot = mu_rot + prior_mu
    mu_rot = mu_rot.reshape(k, g, blen)
    mu = np.einsum("kgc,kbc->kgb", mu_rot, u).reshape(k, n)

    num = np.einsum("kb,kgb->kg", beta, mu_rot * mu_rot) / (gamma * gamma)
    # blen/gamma - sum_j beta_j (1 - |v_ij|^2) / (d_ij gamma^2), with the
    # cancellation done in closed form: exact for dead blocks too.
    vnorm = np.einsum("kmn,kmn->kn", v, v).reshape(k, g, blen)
    den = np.sum(
        (inv_quant_var + beta[:, None, :] * vnorm / gamma[:, :, None]) / d,
        axis=2,
    ) / gamma
    # log|Gamma| + sum log d = sum log(1 + gamma_i / (quant_var beta_j)).
    prior = np.log1p(gamma[:, :, None] * inv_quant_var / beta[:, None, :])
    logdet = (
        np.sum(prior, axis=(1, 2))
        + 2.0 * np.sum(np.log(chol_diag), axis=1)
        - m * math.log(noise_var)
    )
    return mu, num, den, logdet


def _em_measurement_space(
    a: np.ndarray,
    y: np.ndarray,
    noise_var: float,
    c_vec: Optional[np.ndarray],
    quant_var: Optional[float],
    settings: BsblSettings,
) -> Tuple[np.ndarray, int, bool, list]:
    """The scalar BSBL-BO loop on one window.

    ``c_vec``/``quant_var`` are the de-quantization channel's
    pseudo-observations ``Ψ^T x_mid`` and their variance (``None`` for
    plain BSBL).  Returns ``(mu, iterations, converged,
    objective_history)`` where the history holds the negative log
    evidence *before* each gamma update — non-increasing for fixed ``B``
    (``learn_correlation=False``).  Its quadratic term is evaluated at
    the posterior mean as ``||y - A mu||^2 / lambda + ||c - mu||^2 /
    quant_var + mu^T Gamma^{-1} mu``, which is stationary in ``mu`` and
    so immune to the cancellation in ``y^T R^{-1} y - b^T mu``.  The
    batched loop in :mod:`repro.recovery.batched` runs the same
    :func:`measurement_estep` over a window stack, minus the evidence.
    """
    m, n = a.shape
    blen = settings.block_len
    g = settings.blocks_for(n)
    logdet_r = m * math.log(noise_var)
    c_stack = None
    if c_vec is not None:
        logdet_r += n * math.log(quant_var)
        c_stack = c_vec[None, :]
    gamma = np.ones((1, g))
    r = np.zeros(1)
    mu = np.zeros(n)
    history: list = []
    iterations = 0
    converged = False

    for it in range(1, settings.max_iter + 1):
        iterations = it
        mu_new, num, den, logdet = measurement_estep(
            a, y[None, :], noise_var, c_stack, quant_var, gamma, r
        )
        mu_new = mu_new[0]
        resid = y - a @ mu_new
        quad = float(resid @ resid) / noise_var + float(gamma[0] @ num[0])
        if c_vec is not None:
            quad += float(np.sum((c_vec - mu_new) ** 2)) / quant_var
        history.append(logdet_r + float(logdet[0]) + quad)

        gamma_prev = gamma
        gamma = np.maximum(
            gamma * bo_gamma_factor(num, den), settings.gamma_floor
        )

        change = float(np.linalg.norm(mu_new - mu))
        scale = max(float(np.linalg.norm(mu_new)), 1e-12)
        mu = mu_new
        if change <= settings.tol * scale:
            converged = True
            break

        if settings.learn_correlation and blen > 1:
            r = ar1_estimate(
                mu.reshape(1, g, blen), gamma_prev, settings.corr_limit
            )

    return mu, iterations, converged, history


def _finish(
    problem: CsProblem,
    y: np.ndarray,
    mu: np.ndarray,
    iterations: int,
    converged: bool,
    history: list,
    solver: str,
    settings: BsblSettings,
    extra: dict,
) -> RecoveryResult:
    info = {
        "block_len": float(settings.block_len),
        "em_objective": float(history[-1]),
        "objective_history": tuple(history),
    }
    info.update(extra)
    return RecoveryResult(
        alpha=mu,
        x=problem.basis.synthesize(mu),
        iterations=iterations,
        converged=converged,
        residual_norm=float(np.linalg.norm(problem.forward(mu) - y)),
        objective=float(np.sum(np.abs(mu))),
        solver=solver,
        info=info,
    )


def _check_inputs(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    problem: Optional[CsProblem],
) -> Tuple[CsProblem, np.ndarray]:
    if problem is None:
        problem = CsProblem(phi, basis)
    y = check_finite(np.asarray(y, dtype=float), name="y")
    y = check_shape(y, (problem.m,), name="y")
    return problem, y


def solve_bsbl(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    noise_var: float,
    *,
    settings: Optional[BsblSettings] = None,
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """BSBL-BO posterior-mean recovery from CS measurements alone.

    Parameters
    ----------
    noise_var:
        Measurement-noise variance ``lambda`` (use
        :func:`measurement_noise_var` for the quantization-derived value).
    """
    check_variance(noise_var, "noise_var")
    settings = settings or BsblSettings()
    problem, y = _check_inputs(phi, basis, y, problem)
    mu, iterations, converged, history = _em_measurement_space(
        problem.a, y, noise_var, None, None, settings
    )
    return _finish(
        problem,
        y,
        mu,
        iterations,
        converged,
        history,
        "bsbl-bo",
        settings,
        {"noise_var": float(noise_var)},
    )


def solve_bsbl_dequant(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    noise_var: float,
    x_mid: np.ndarray,
    quant_var: float,
    *,
    settings: Optional[BsblSettings] = None,
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """BSBL with the low-res path as Gaussian pseudo-observations.

    ``x_mid`` holds the per-sample cell midpoints, shape ``(n,)`` in the
    same centered units as the solver domain, and ``quant_var`` the
    shared cell variance — both from :func:`lowres_cell_stats`.  Because
    Ψ is orthonormal the extra channel contributes ``I / quant_var`` to
    the prior precision and ``Ψ^T x_mid / quant_var`` to ``b``;
    everything else is the plain BSBL iteration, so the de-quantizer
    inherits its convergence and batching behavior unchanged.
    """
    check_variance(noise_var, "noise_var")
    check_variance(quant_var, "quant_var")
    settings = settings or BsblSettings()
    problem, y = _check_inputs(phi, basis, y, problem)
    x_mid = check_finite(np.asarray(x_mid, dtype=float), name="x_mid")
    x_mid = check_shape(x_mid, (problem.n,), name="x_mid")
    mu, iterations, converged, history = _em_measurement_space(
        problem.a, y, noise_var, problem.basis.analyze(x_mid), quant_var,
        settings,
    )
    return _finish(
        problem,
        y,
        mu,
        iterations,
        converged,
        history,
        "bsbl-bo-dequant",
        settings,
        {"noise_var": float(noise_var), "quant_var": float(quant_var)},
    )
