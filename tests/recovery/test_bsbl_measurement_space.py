"""The measurement-space BSBL-BO E-step against its information-form oracle.

The production EM (:func:`repro.recovery.bsbl.measurement_estep`) works
through one ``m x m`` Cholesky factor per iteration.  The loop below is
the coefficient-space form it replaced: a dense ``n x n`` solve against
``M = Gamma^{-1} + G`` with ``n + 1`` right-hand sides, a second LU for
the evidence, and the BO denominator from ``G - G Sigma G``.  It lives
here only as the oracle: both forms must give the same posterior means,
iteration counts and evidence histories on {``bsbl``, ``bsbl-dequant``}
x CR {25, 50, 75} x ``learn_correlation`` {on, off}, and
the new form must stay finite where block scales sit at ``GAMMA_FLOOR``.
"""

from typing import Optional

import numpy as np
import pytest

from repro.recovery.bsbl import (
    GAMMA_FLOOR,
    BsblSettings,
    ar1_precision,
    ar1_estimate,
    bo_gamma_factor,
    cholesky_forward,
    measurement_estep,
    solve_bsbl,
    solve_bsbl_dequant,
)
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import bernoulli_matrix
from repro.wavelets.operators import WaveletBasis

N = 128
BLOCK_LEN = 16
NOISE_VAR = 0.02**2
QUANT_VAR = 0.05
_BASIS = WaveletBasis(N, "db4")


def ar1_blocks(r, blen):
    """AR(1) ``B = [r^|i-j|]``, ``B^{-1}`` and ``log|B| = (b-1) log(1-r^2)``."""
    idx = np.arange(blen)
    bmat = r ** np.abs(idx[:, None] - idx[None, :])
    binv = ar1_precision(r, blen)
    return bmat, binv, (blen - 1) * np.log(1.0 - r * r)


def em_information_form(G, b_vec, y_quad, logdet_r, settings):
    """The coefficient-space BSBL-BO loop on one information pair ``(G, b)``.

    Returns ``(mu, iterations, converged, objective_history)`` exactly as
    the production loop does.
    """
    n = G.shape[0]
    blen = settings.block_len
    g = settings.blocks_for(n)
    idx = np.arange(g)
    gdiag = G.reshape(g, blen, g, blen)[idx, :, idx, :]
    gamma = np.ones(g)
    r = 0.0
    mu = np.zeros(n)
    history = []
    iterations = 0
    converged = False

    for it in range(1, settings.max_iter + 1):
        iterations = it
        bmat, binv, logdet_b = ar1_blocks(r, blen)
        m_mat = G.copy()
        mview = m_mat.reshape(g, blen, g, blen)
        mview[idx, :, idx, :] += binv[None, :, :] / gamma[:, None, None]

        rhs = np.concatenate([b_vec[:, None], G], axis=1)
        sol = np.linalg.solve(m_mat, rhs)
        mu_new = sol[:, 0]
        w_mat = sol[:, 1:]

        _, logdet_m = np.linalg.slogdet(m_mat)
        logdet_gamma = blen * float(np.sum(np.log(gamma))) + g * float(logdet_b)
        history.append(
            logdet_r + logdet_gamma + float(logdet_m) + y_quad
            - float(b_vec @ mu_new)
        )

        q = b_vec - G @ mu_new
        qb = q.reshape(g, blen)
        num = np.einsum("gb,bc,gc->g", qb, bmat, qb)
        gw = np.einsum(
            "ibn,nie->ibe", G.reshape(g, blen, n), w_mat.reshape(n, g, blen)
        )
        den = np.einsum("bc,gcb->g", bmat, gdiag - gw)
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


def oracle_solve(problem, y, x_mid: Optional[np.ndarray], settings):
    """The information pair of ``solve_bsbl``/``solve_bsbl_dequant``, solved
    by :func:`em_information_form`."""
    G = problem.gram() / NOISE_VAR
    b_vec = problem.adjoint(y) / NOISE_VAR
    y_quad = float(y @ y) / NOISE_VAR
    logdet_r = problem.m * float(np.log(NOISE_VAR))
    if x_mid is not None:
        G = G + np.eye(problem.n) / QUANT_VAR
        b_vec = b_vec + problem.basis.analyze(x_mid) / QUANT_VAR
        y_quad += float(x_mid @ x_mid) / QUANT_VAR
        logdet_r += problem.n * float(np.log(QUANT_VAR))
    return em_information_form(G, b_vec, y_quad, logdet_r, settings)


def _window(cr: float, seed: int):
    """A block-structured window, its measurements and low-res midpoints."""
    rng = np.random.default_rng(seed)
    m = int(round(N * (1.0 - cr / 100.0)))
    problem = CsProblem(bernoulli_matrix(m, N, seed=seed), _BASIS)
    alpha = np.zeros(N)
    for block in rng.choice(N // BLOCK_LEN, 2, replace=False):
        start = block * BLOCK_LEN
        alpha[start:start + BLOCK_LEN] = np.cumsum(
            rng.standard_normal(BLOCK_LEN)
        )
    x = _BASIS.synthesize(alpha)
    y = problem.phi @ x + np.sqrt(NOISE_VAR) * rng.standard_normal(m)
    width = np.sqrt(12.0 * QUANT_VAR)
    x_mid = (np.floor(x / width) + 0.5) * width
    return problem, y, x_mid


def _solve(method, problem, y, x_mid, settings):
    if method == "bsbl":
        return solve_bsbl(
            problem.phi, _BASIS, y, NOISE_VAR,
            settings=settings, problem=problem,
        )
    return solve_bsbl_dequant(
        problem.phi, _BASIS, y, NOISE_VAR, x_mid, QUANT_VAR,
        settings=settings, problem=problem,
    )


@pytest.mark.parametrize("learn", (True, False), ids=("learn-r", "fixed-r"))
@pytest.mark.parametrize("cr", (25.0, 50.0, 75.0))
@pytest.mark.parametrize("method", ("bsbl", "bsbl-dequant"))
def test_matches_information_form(method, cr, learn):
    settings = BsblSettings(
        block_len=BLOCK_LEN, max_iter=150, tol=1e-6, learn_correlation=learn
    )
    problem, y, x_mid = _window(cr, seed=int(cr))
    result = _solve(method, problem, y, x_mid, settings)
    mu, iterations, converged, history = oracle_solve(
        problem, y, x_mid if method == "bsbl-dequant" else None, settings
    )
    assert result.iterations == iterations
    assert result.converged == converged
    scale = max(float(np.max(np.abs(mu))), 1.0)
    assert np.max(np.abs(result.alpha - mu)) <= 1e-8 * scale
    # Relative to the history's own scale: it crosses zero on its way
    # down, where a pointwise relative gap means nothing.
    got = np.asarray(result.info["objective_history"])
    atol = 1e-9 * float(np.max(np.abs(history)))
    np.testing.assert_allclose(got, history, rtol=1e-9, atol=atol)


@pytest.mark.parametrize("m", (5, 32, 48, 129, 256))
def test_cholesky_forward_matches_factor_and_solve(m):
    rng = np.random.default_rng(m)
    for _ in range(2):
        g = rng.standard_normal((m, m))
        spd = g @ g.T + m * np.eye(m)
        rhs = rng.standard_normal((m, 9))
        t = np.concatenate([spd, rhs], axis=1)
        diag = cholesky_forward(t)
        lower = np.linalg.cholesky(spd)
        np.testing.assert_allclose(diag, np.diagonal(lower), rtol=1e-12)
        expected = np.linalg.solve(lower, rhs)
        np.testing.assert_allclose(t[:, m:], expected, rtol=1e-10, atol=1e-12)


class TestConditioning:
    """Block scales at ``GAMMA_FLOOR`` must not break the E-step: the
    prior precision ``B^{-1}/gamma`` is then ~1e12, and for plain BSBL
    (no ``I / quant_var`` term) it is all of ``D``."""

    @pytest.mark.parametrize("dequant", (False, True), ids=("bsbl", "dequant"))
    def test_estep_finite_at_gamma_floor(self, dequant):
        problem, y, x_mid = _window(50.0, seed=3)
        g = N // BLOCK_LEN
        gamma = np.full(g, 1.0)
        gamma[: g // 2] = GAMMA_FLOOR
        c_vec = _BASIS.analyze(x_mid) if dequant else None
        mu, num, den, logdet = measurement_estep(
            problem.a, y, NOISE_VAR,
            c_vec, QUANT_VAR if dequant else None, gamma, 0.9,
        )
        for out in (mu, num, den, logdet):
            assert np.all(np.isfinite(out))
        assert np.all(den > 0.0)
        # A floored block is pinned to (numerically) zero.
        assert np.max(np.abs(mu[: (g // 2) * BLOCK_LEN])) < 1e-6

    @pytest.mark.parametrize("method", ("bsbl", "bsbl-dequant"))
    def test_zero_block_window_finite(self, method):
        # Two of the window's eight coefficient blocks carry all of the
        # energy; the rest are exactly zero, and their scales reach
        # GAMMA_FLOOR within the first few dozen iterations.
        settings = BsblSettings(block_len=BLOCK_LEN, max_iter=300, tol=1e-10)
        problem, y, x_mid = _window(50.0, seed=11)
        result = _solve(method, problem, y, x_mid, settings)
        history = np.asarray(result.info["objective_history"])
        assert np.all(np.isfinite(result.alpha))
        assert np.all(np.isfinite(history))

    @pytest.mark.parametrize("method", ("bsbl", "bsbl-dequant"))
    def test_all_zero_measurements(self, method):
        settings = BsblSettings(block_len=BLOCK_LEN)
        problem, y, _ = _window(50.0, seed=5)
        zeros = np.zeros(N)
        result = _solve(method, problem, np.zeros_like(y), zeros, settings)
        assert np.array_equal(result.alpha, zeros)
        assert result.converged
        assert np.isfinite(result.info["em_objective"])
