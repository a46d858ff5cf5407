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
(:func:`measurement_estep`).

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

#: Clip for the learned AR(1) ``|r|`` (keeps ``B`` well conditioned).
CORR_LIMIT = 0.95

#: Lower clamp for block scales; blocks at the floor are effectively
#: pruned without changing the iteration shape.
GAMMA_FLOOR = 1e-12


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
    """

    block_len: int = 16
    max_iter: int = 120
    tol: float = 1e-4
    learn_correlation: bool = True

    def __post_init__(self) -> None:
        if self.block_len < 1:
            raise ValueError("block_len must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")

    def blocks_for(self, n: int) -> int:
        """Number of blocks for an ``n``-coefficient window (validating)."""
        if n % self.block_len:
            raise ValueError(
                f"block_len {self.block_len} does not divide window length {n}"
            )
        return n // self.block_len


def measurement_noise_var(step: float) -> float:
    """Per-measurement quantization-noise variance ``step^2 / 12``.

    The CS quantizer's error is uniform in ``±step/2``; this is the same
    noise model behind the convex path's fidelity radius ``sigma()``,
    expressed as a variance for the Gaussian likelihood.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    return step**2 / 12.0


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


def ar1_precision(r: float, block_len: int) -> np.ndarray:
    """Closed-form inverse of the AR(1) Toeplitz block ``B[i, j] = r^|i-j|``.

    Returns ``B^{-1}``, shape ``(b, b)``: the classical tridiagonal
    ``(1/(1-r^2)) tridiag(-r; 1, 1+r^2, ..., 1+r^2, 1; -r)``, exact, so
    no ``B`` is ever formed or factorized.
    """
    b = int(block_len)
    if b == 1:
        return np.ones((1, 1))
    idx = np.arange(b)
    binv = np.zeros((b, b))
    binv[idx, idx] = 1.0 + r * r
    binv[0, 0] = 1.0
    binv[b - 1, b - 1] = 1.0
    binv[idx[:-1], idx[1:]] = -r
    binv[idx[1:], idx[:-1]] = -r
    return binv / (1.0 - r * r)


def bo_gamma_factor(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The BO multiplicative update ``sqrt(num / den)``, guarded.

    ``num = q^T B q >= 0`` and ``den = tr(B H) > 0`` in exact arithmetic;
    the guards only protect against floating-point collapse of a dead
    block.  Elementwise: the result has the shape of ``num``.
    """
    safe_den = np.maximum(den, _TINY)
    return np.sqrt(np.maximum(num, 0.0) / safe_den)


def ar1_estimate(mub: np.ndarray, gamma: np.ndarray) -> float:
    """AR(1) correlation from the posterior-mean blocks.

    ``mub`` has shape ``(g, b)`` and ``gamma`` ``(g,)``; returns the
    lag-1 correlation clipped to ``±CORR_LIMIT`` — Zhang & Rao's
    practical ``B`` re-estimation from the scale-whitened empirical block
    covariance, reduced to its Toeplitz (lag-averaged) form.
    """
    inv_gamma = 1.0 / np.maximum(gamma, _TINY)
    diag = np.einsum("gb,gb,g->", mub, mub, inv_gamma)
    off = np.einsum("gb,gb,g->", mub[:, :-1], mub[:, 1:], inv_gamma)
    b = mub.shape[1]
    diag_mean = diag / b
    off_mean = off / max(b - 1, 1)
    if not diag_mean > _TINY:
        return 0.0
    raw = off_mean / diag_mean
    if not math.isfinite(raw):
        return 0.0
    return float(min(max(raw, -CORR_LIMIT), CORR_LIMIT))


def check_variance(value: float, name: str) -> None:
    """Reject a variance that is not a finite positive number.

    A plain ``value <= 0`` guard lets NaN and inf through to a NaN
    posterior.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def cholesky_forward(t: np.ndarray, leaf: int = 32) -> np.ndarray:
    """Factor ``S = L L^T`` and overwrite ``X`` with ``L^{-1} X``, in place.

    ``t`` is an ``(m, m + p)`` array laid out as ``[S | X]`` with ``S``
    symmetric positive definite; returns ``diag(L)``, shape ``(m,)``.
    The ``S`` block is consumed.  Recursive and right-looking: the top
    ``h`` rows ``[S11 | S12 X1]`` solve to ``[L21^T | L11^{-1} X1]``, one
    GEMM with those rows downdates ``[S22 | X2]`` (Schur complement and
    right-hand side together), and the bottom rows recurse.  Only
    ``leaf``-sized blocks are factored and inverted directly, so nearly
    every flop of the ``O(m^3 + m^2 p)`` total is a matrix multiply
    (SciPy's triangular solve measured no faster).
    """
    m = t.shape[0]
    if m <= leaf:
        lower = np.linalg.cholesky(t[:, :m])
        t[:, m:] = np.linalg.inv(lower) @ t[:, m:]
        return np.diagonal(lower)
    h = m // 2
    top = cholesky_forward(t[:h], leaf)
    t[h:, h:] -= t[:h, h:m].T @ t[:h, h:]
    bottom = cholesky_forward(t[h:, h:], leaf)
    return np.concatenate([top, bottom])


def measurement_estep(
    a: np.ndarray,
    y: np.ndarray,
    noise_var: float,
    c_vec: Optional[np.ndarray],
    quant_var: Optional[float],
    gamma: np.ndarray,
    r: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One BSBL-BO E-step in measurement space.

    ``a`` is the ``(m, n)`` operator ``A``; ``y`` ``(m,)``, ``gamma``
    ``(g,)`` and ``r`` are the window's measurements, block scales and
    AR(1) correlation; ``c_vec`` ``(n,)`` and ``quant_var`` are the
    de-quantization channel (``None`` for plain BSBL).  The prior
    precision ``D_i = B^{-1} / gamma_i + I / quant_var`` is
    block-diagonal, and diagonal (``d``) in the eigenbasis ``U`` of
    ``B^{-1}`` (eigenvalues ``beta``).  With ``F = A W D^{-1/2}``
    (``W = blockdiag(U)``), one Cholesky factor ``L`` of
    ``S = F F^T + lambda I`` and ``V = L^{-1} F`` give, by Woodbury,
    ``Sigma = W D^{-1/2} (I - V^T V) D^{-1/2} W^T``.  The mean is taken
    in the data-space form ``mu = p + D^{-1} (A W)^T S^{-1} (y - A W p)``
    with ``p = D^{-1} W^T c / quant_var``, which never subtracts two
    large terms (``I - V^T V`` applied to ``D^{-1/2} b`` would, for
    blocks whose prior is much wider than the noise).

    Returns ``(mu, num, den, logdet)``: the posterior mean ``(n,)``;
    the BO numerator ``mu_i^T B^{-1} mu_i / gamma_i^2`` and denominator
    ``tr(B H_ii) = blen / gamma_i - tr(B^{-1} Sigma_ii) / gamma_i^2``,
    both ``(g,)``; and ``log|Gamma M|``, the evidence's determinant
    term, from ``log|M| = sum log d + log|S| - m log lambda``.  The cost
    is ``O(m^2 n)``.
    """
    m, n = a.shape
    g = gamma.shape[0]
    blen = n // g
    inv_quant_var = 0.0 if c_vec is None else 1.0 / quant_var
    beta, u = np.linalg.eigh(ar1_precision(r, blen))
    d = beta[None, :] / gamma[:, None] + inv_quant_var
    scale = 1.0 / np.sqrt(d.reshape(n))

    aw = (a.reshape(m * g, blen) @ u).reshape(m, n)
    # [S | F | z], factored in one pass into [. | V | L^{-1} z], where z is
    # the data the prior mean p does not explain.
    t = np.empty((m, m + n + 1))
    f = t[:, m : m + n]
    np.multiply(aw, scale, out=f)
    if c_vec is None:
        t[:, m + n] = y
    else:
        c_rot = np.einsum("gb,bc->gc", c_vec.reshape(g, blen), u)
        prior_mu = (inv_quant_var * c_rot / d).reshape(n)
        t[:, m + n] = y - aw @ prior_mu
    np.matmul(f, f.T, out=t[:, :m])
    diag = np.arange(m)
    t[diag, diag] += noise_var
    chol_diag = cholesky_forward(t)
    v = f  # now L^{-1} F

    mu_rot = (t[:, m + n] @ v) * scale
    if c_vec is not None:
        mu_rot = mu_rot + prior_mu
    mu_rot = mu_rot.reshape(g, blen)
    mu = np.einsum("gc,bc->gb", mu_rot, u).reshape(n)

    num = np.einsum("b,gb->g", beta, mu_rot * mu_rot) / (gamma * gamma)
    # blen/gamma - sum_j beta_j (1 - |v_ij|^2) / (d_ij gamma^2), with the
    # cancellation done in closed form: exact for dead blocks too.
    vnorm = np.einsum("mn,mn->n", v, v).reshape(g, blen)
    den = np.sum(
        (inv_quant_var + beta[None, :] * vnorm / gamma[:, None]) / d, axis=1
    ) / gamma
    # log|Gamma| + sum log d = sum log(1 + gamma_i / (quant_var beta_j)).
    prior = np.log1p(gamma[:, None] * inv_quant_var / beta[None, :])
    logdet = (
        float(np.sum(prior))
        + 2.0 * float(np.sum(np.log(chol_diag)))
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
    so immune to the cancellation in ``y^T R^{-1} y - b^T mu``.
    """
    m, n = a.shape
    blen = settings.block_len
    g = settings.blocks_for(n)
    logdet_r = m * math.log(noise_var)
    if c_vec is not None:
        logdet_r += n * math.log(quant_var)
    gamma = np.ones(g)
    r = 0.0
    mu = np.zeros(n)
    history: list = []
    iterations = 0
    converged = False

    for it in range(1, settings.max_iter + 1):
        iterations = it
        mu_new, num, den, logdet = measurement_estep(
            a, y, noise_var, c_vec, quant_var, gamma, r
        )
        resid = y - a @ mu_new
        quad = float(resid @ resid) / noise_var + float(gamma @ num)
        if c_vec is not None:
            quad += float(np.sum((c_vec - mu_new) ** 2)) / quant_var
        history.append(logdet_r + logdet + quad)

        gamma_prev = gamma
        gamma = np.maximum(gamma * bo_gamma_factor(num, den), GAMMA_FLOOR)

        change = float(np.linalg.norm(mu_new - mu))
        scale = max(float(np.linalg.norm(mu_new)), 1e-12)
        mu = mu_new
        if change <= settings.tol * scale:
            converged = True
            break

        if settings.learn_correlation and blen > 1:
            r = ar1_estimate(mu.reshape(g, blen), gamma_prev)

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
    inherits its convergence behavior unchanged.
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
