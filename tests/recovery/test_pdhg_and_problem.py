"""Tests of the PDHG settings, the generic engine the Eq. 1 kernel is
checked against (``tests/recovery/pdhg_oracle.py``) and the CsProblem
cache."""

import numpy as np
import pytest

from repro.recovery.eq1 import solve_eq1
from repro.recovery.pdhg import PdhgSettings
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import bernoulli_matrix
from repro.wavelets.operators import IdentityBasis, WaveletBasis
from tests.recovery.pdhg_oracle import (
    ConstraintBlock,
    ball_block,
    project_box,
    solve_l1_constrained,
)


class TestPdhgSettings:
    def test_defaults_valid(self):
        s = PdhgSettings()
        assert s.max_iter > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0},
            {"tol": 0.0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PdhgSettings(**kwargs)


class TestEngine:
    def test_requires_blocks(self):
        with pytest.raises(ValueError):
            solve_l1_constrained(8, [])

    def test_box_only_problem(self):
        """min ||a||_1 s.t. 1 <= a_0 <= 2 (identity map): optimum a=(1,0...)."""
        n = 5
        lo = np.array([1.0, -10, -10, -10, -10])
        hi = np.array([2.0, 10, 10, 10, 10])
        block = ConstraintBlock(
            forward=lambda a: a,
            adjoint=lambda z: z,
            project=lambda z: project_box(z, lo, hi),
            opnorm_sq=1.0,
            violation=lambda z: float(np.linalg.norm(z - np.clip(z, lo, hi))),
            out_dim=n,
        )
        r = solve_l1_constrained(
            n, [block], settings=PdhgSettings(max_iter=4000, tol=1e-8)
        )
        assert np.allclose(r.alpha, [1.0, 0, 0, 0, 0], atol=1e-3)

    def test_warm_start_used(self, rng):
        n = 16
        lo = -np.ones(n)
        hi = np.ones(n)
        block = ConstraintBlock(
            forward=lambda a: a,
            adjoint=lambda z: z,
            project=lambda z: project_box(z, lo, hi),
            opnorm_sq=1.0,
            violation=lambda z: 0.0,
            out_dim=n,
        )
        r = solve_l1_constrained(
            n, [block], alpha0=np.zeros(n),
            settings=PdhgSettings(max_iter=50, tol=1e-3),
        )
        # Zero is optimal and feasible: should converge immediately.
        assert r.converged
        assert np.allclose(r.alpha, 0.0)

    def test_step_sizes_satisfy_pdhg_condition(self, basis_128, rng):
        """tau * sum_i s_i ||K_i||^2 = tau * s * N = 1 for N blocks with
        block dual steps s_i = s/||K_i||^2 (``lipschitz_sq`` reports N)
        holds at the final, adapted primal weight, in the generic engine
        and in the Eq. 1 kernel."""
        phi = bernoulli_matrix(32, 128, seed=0)
        prob = CsProblem(phi, basis_128)
        y = phi @ rng.standard_normal(128)
        settings = PdhgSettings(max_iter=200, tol=1e-12)
        results = [
            solve_l1_constrained(128, [ball_block(prob, y, 0.1)], settings=settings),
            solve_eq1(prob, y, 0.1, settings=settings),
        ]
        for r in results:
            assert r.iterations == 200
            assert r.info["primal_weight"] != 1.0  # rebalanced
            assert r.info["lipschitz_sq"] == 1.0  # one block, the ball
            product = r.info["tau"] * r.info["dual_step"] * r.info["lipschitz_sq"]
            assert product == pytest.approx(1.0, rel=0, abs=1e-12)


class TestCsProblem:
    def test_composed_operator(self, rng):
        basis = WaveletBasis(64, "db2")
        phi = bernoulli_matrix(16, 64, seed=1)
        prob = CsProblem(phi, basis)
        alpha = rng.standard_normal(64)
        assert np.allclose(prob.forward(alpha), phi @ basis.synthesize(alpha))

    def test_adjoint_consistency(self, rng):
        basis = WaveletBasis(64, "db2")
        phi = bernoulli_matrix(16, 64, seed=2)
        prob = CsProblem(phi, basis)
        a = rng.standard_normal(64)
        z = rng.standard_normal(16)
        assert float(np.dot(prob.forward(a), z)) == pytest.approx(
            float(np.dot(a, prob.adjoint(z))), abs=1e-9
        )

    def test_opnorm_bounds_matrix_norm(self):
        basis = IdentityBasis(64)
        phi = bernoulli_matrix(16, 64, seed=3)
        prob = CsProblem(phi, basis)
        exact = float(np.linalg.svd(phi, compute_uv=False)[0])
        assert prob.opnorm_sq() >= exact**2 * 0.999

    def test_matrix_cached(self):
        basis = WaveletBasis(64, "db2")
        phi = bernoulli_matrix(16, 64, seed=4)
        prob = CsProblem(phi, basis)
        assert prob.a is prob.a
        assert prob.psi is prob.psi

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CsProblem(bernoulli_matrix(16, 32, seed=5), WaveletBasis(64, "db2"))

    def test_measure_signal(self, rng):
        basis = IdentityBasis(32)
        phi = bernoulli_matrix(8, 32, seed=6)
        prob = CsProblem(phi, basis)
        x = rng.standard_normal(32)
        assert np.allclose(prob.measure_signal(x), phi @ x)


class TestProblemFactorizations:
    def _problem(self):
        return CsProblem(bernoulli_matrix(24, 64, seed=11), WaveletBasis(64, "db2"))

    def test_admm_factor_cached_and_correct(self):
        from scipy.linalg import cho_solve

        prob = self._problem()
        factor = prob.admm_factor()
        assert prob.admm_factor() is factor
        rhs = np.arange(prob.n, dtype=float)
        solved = cho_solve(factor, rhs)
        assert np.allclose(
            (np.eye(prob.n) + prob.gram()) @ solved, rhs, atol=1e-8
        )


class TestRecoveryResult:
    def test_sparsity_counter(self, rng, basis_128):
        from repro.recovery.result import RecoveryResult

        alpha = np.zeros(10)
        alpha[[1, 5]] = [1.0, -2.0]
        r = RecoveryResult(
            alpha=alpha, x=alpha, iterations=1, converged=True,
            residual_norm=0.0, objective=3.0, solver="test",
        )
        assert r.sparsity() == 2
        assert "test" in r.summary()

    def test_zero_alpha_sparsity(self):
        from repro.recovery.result import RecoveryResult

        r = RecoveryResult(
            alpha=np.zeros(4), x=np.zeros(4), iterations=1, converged=False,
            residual_norm=1.0, objective=0.0, solver="t",
        )
        assert r.sparsity() == 0
        assert "max-iter" in r.summary()
