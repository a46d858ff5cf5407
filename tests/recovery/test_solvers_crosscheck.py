"""Cross-solver agreement and KKT checks.

The strongest correctness evidence for the convex solvers: structurally
different algorithms (PDHG, ADMM, FISTA) must agree on the same convex
program, and small instances must satisfy the optimality conditions.
"""

import numpy as np
import pytest

from benchmarks.baselines import lambda_max, solve_fista
from repro.recovery.admm import solve_bpdn_admm
from repro.recovery.eq1 import solve_bpdn
from repro.recovery.pdhg import PdhgSettings
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import bernoulli_matrix, gaussian_matrix
from repro.wavelets.operators import IdentityBasis, WaveletBasis


def _instance(m=48, n=128, k=6, seed=0):
    rng = np.random.default_rng(seed)
    basis = WaveletBasis(n, "db4")
    phi = bernoulli_matrix(m, n, seed=seed)
    alpha = np.zeros(n)
    alpha[rng.choice(n, k, replace=False)] = rng.standard_normal(k) * 2.0
    x = basis.synthesize(alpha)
    y = phi @ x + 0.005 * rng.standard_normal(m)
    return phi, basis, x, y


class TestPdhgVsAdmm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_solution(self, seed):
        phi, basis, x, y = _instance(seed=seed)
        sigma = 0.01 * np.sqrt(48)
        a = solve_bpdn(
            phi, basis, y, sigma, settings=PdhgSettings(max_iter=12000, tol=1e-7)
        )
        b = solve_bpdn_admm(phi, basis, y, sigma, max_iter=8000, tol=1e-8)
        # Same objective value (the solution may be non-unique; the optimum
        # value is unique).
        assert a.objective == pytest.approx(b.objective, rel=2e-2)
        # And the reconstructions agree closely.
        scale = max(np.linalg.norm(a.x), 1e-9)
        assert np.linalg.norm(a.x - b.x) / scale < 0.05

    def test_admm_respects_ball(self):
        phi, basis, x, y = _instance(seed=3)
        sigma = 0.05
        r = solve_bpdn_admm(phi, basis, y, sigma, max_iter=5000)
        assert r.residual_norm <= sigma * 1.05

    def test_admm_validation(self):
        phi, basis, _, y = _instance()
        for bad_sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                solve_bpdn_admm(phi, basis, y, sigma=bad_sigma)
        with pytest.raises(ValueError):
            solve_bpdn_admm(phi, basis, y, sigma=0.1, rho=0.0)


class TestFista:
    def test_lambda_max_zeroes_solution(self):
        phi, basis, _, y = _instance(seed=4)
        prob = CsProblem(phi, basis)
        lam = lambda_max(prob, y) * 1.01
        r = solve_fista(phi, basis, y, lam, problem=prob)
        assert np.linalg.norm(r.alpha) < 1e-8

    def test_small_lambda_fits_data(self):
        phi, basis, x, y = _instance(seed=5)
        r = solve_fista(phi, basis, y, lam=1e-4, max_iter=4000)
        assert r.residual_norm < 0.1 * np.linalg.norm(y)

    def test_kkt_conditions(self):
        """At the LASSO optimum: |A^T(y - A a)|_inf <= lam, with equality
        on the support (subgradient optimality)."""
        phi, basis, x, y = _instance(seed=6)
        prob = CsProblem(phi, basis)
        lam = 0.05 * lambda_max(prob, y)
        r = solve_fista(phi, basis, y, lam, max_iter=8000, tol=1e-10, problem=prob)
        grad = prob.adjoint(y - prob.forward(r.alpha))
        assert np.max(np.abs(grad)) <= lam * 1.02
        on_support = np.abs(r.alpha) > 1e-6
        if np.any(on_support):
            assert np.allclose(
                np.abs(grad[on_support]), lam, rtol=0.05
            )

    def test_matches_bpdn_through_pareto_point(self):
        """LASSO(lam) and BPDN(sigma) trace the same Pareto curve: solving
        BPDN with the sigma achieved by a LASSO solve returns (nearly) the
        same objective."""
        phi, basis, x, y = _instance(seed=7)
        prob = CsProblem(phi, basis)
        lam = 0.1 * lambda_max(prob, y)
        lasso = solve_fista(phi, basis, y, lam, max_iter=9000, tol=1e-11, problem=prob)
        sigma = lasso.residual_norm
        bpdn = solve_bpdn(
            phi, basis, y, sigma,
            settings=PdhgSettings(max_iter=15000, tol=1e-8), problem=prob,
        )
        assert bpdn.objective == pytest.approx(lasso.objective, rel=2e-2)

    def test_validation(self):
        phi, basis, _, y = _instance()
        with pytest.raises(ValueError):
            solve_fista(phi, basis, y, lam=0.0)


class TestBasisPursuitExactness:
    def test_equality_bp_on_gaussian(self):
        """sigma=0 basis pursuit recovers an exactly sparse vector from
        Gaussian measurements — the textbook CS guarantee."""
        rng = np.random.default_rng(8)
        n, m, k = 100, 50, 5
        basis = IdentityBasis(n)
        phi = gaussian_matrix(m, n, seed=8)
        alpha = np.zeros(n)
        alpha[rng.choice(n, k, replace=False)] = rng.standard_normal(k)
        y = phi @ alpha
        r = solve_bpdn(
            phi, basis, y, sigma=0.0,
            settings=PdhgSettings(max_iter=20000, tol=1e-9),
        )
        assert np.linalg.norm(r.alpha - alpha) < 1e-3 * max(np.linalg.norm(alpha), 1.0)
