"""Tests of BPDN recovery (normal CS) on the PDHG engine."""

import numpy as np
import pytest

from repro.recovery.eq1 import solve_bpdn
from repro.recovery.pdhg import PdhgSettings
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import bernoulli_matrix, gaussian_matrix
from repro.wavelets.operators import IdentityBasis, WaveletBasis


def _sparse_vector(n, k, rng):
    x = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x[support] = rng.standard_normal(k) * 3.0
    return x


class TestExactRecovery:
    def test_recovers_sparse_signal_identity_basis(self, rng):
        """Classic CS sanity: k-sparse vector, m ~ 4k measurements."""
        n, k, m = 128, 6, 64
        basis = IdentityBasis(n)
        phi = gaussian_matrix(m, n, seed=0)
        alpha_true = _sparse_vector(n, k, rng)
        y = phi @ alpha_true
        result = solve_bpdn(
            phi, basis, y, sigma=1e-6,
            settings=PdhgSettings(max_iter=6000, tol=1e-7),
        )
        assert np.linalg.norm(result.alpha - alpha_true) < 1e-2 * np.linalg.norm(
            alpha_true
        )

    def test_recovers_wavelet_sparse_signal(self, rng, basis_128):
        n, k, m = 128, 5, 64
        phi = bernoulli_matrix(m, n, seed=1)
        alpha_true = _sparse_vector(n, k, rng)
        x_true = basis_128.synthesize(alpha_true)
        y = phi @ x_true
        result = solve_bpdn(
            phi, basis_128, y, sigma=1e-6,
            settings=PdhgSettings(max_iter=6000, tol=1e-7),
        )
        assert np.linalg.norm(result.x - x_true) < 0.05 * np.linalg.norm(x_true)

    def test_fails_gracefully_with_too_few_measurements(self, rng, basis_128):
        """With m << k log(n/k) the solver still returns a feasible point,
        it just reconstructs poorly — the paper's normal-CS collapse."""
        phi = bernoulli_matrix(8, 128, seed=2)
        alpha_true = _sparse_vector(128, 20, rng)
        x_true = basis_128.synthesize(alpha_true)
        result = solve_bpdn(phi, basis_128, phi @ x_true, sigma=1e-4)
        assert result.residual_norm < 1.0  # feasible
        # and the reconstruction is (expectedly) bad:
        assert np.linalg.norm(result.x - x_true) > 0.2 * np.linalg.norm(x_true)


class TestConstraintHandling:
    def test_residual_within_sigma(self, rng, basis_128):
        phi = bernoulli_matrix(48, 128, seed=3)
        x = basis_128.synthesize(_sparse_vector(128, 8, rng))
        y = phi @ x + 0.01 * rng.standard_normal(48)
        sigma = 0.02 * np.sqrt(48)
        result = solve_bpdn(
            phi, basis_128, y, sigma, settings=PdhgSettings(max_iter=4000)
        )
        assert result.residual_norm <= sigma * 1.05

    def test_zero_measurement_gives_zero_solution(self, basis_128):
        phi = bernoulli_matrix(32, 128, seed=4)
        result = solve_bpdn(phi, basis_128, np.zeros(32), sigma=0.0)
        assert np.linalg.norm(result.alpha) < 1e-6

    def test_large_sigma_gives_zero_solution(self, rng, basis_128):
        """If the ball contains the origin's image, min-l1 picks alpha=0."""
        phi = bernoulli_matrix(32, 128, seed=5)
        y = 0.1 * rng.standard_normal(32)
        result = solve_bpdn(phi, basis_128, y, sigma=10.0)
        assert np.linalg.norm(result.alpha) < 1e-4

    def test_negative_sigma_rejected(self, basis_128):
        phi = bernoulli_matrix(32, 128, seed=6)
        with pytest.raises(ValueError):
            solve_bpdn(phi, basis_128, np.zeros(32), sigma=-1.0)

    def test_wrong_measurement_length_rejected(self, basis_128):
        phi = bernoulli_matrix(32, 128, seed=7)
        with pytest.raises(ValueError):
            solve_bpdn(phi, basis_128, np.zeros(31), sigma=0.1)


class TestProblemReuse:
    def test_shared_problem_matches_fresh(self, rng, basis_128):
        phi = bernoulli_matrix(48, 128, seed=8)
        prob = CsProblem(phi, basis_128)
        x = basis_128.synthesize(_sparse_vector(128, 6, rng))
        y = phi @ x
        a = solve_bpdn(phi, basis_128, y, sigma=1e-5, problem=prob)
        b = solve_bpdn(phi, basis_128, y, sigma=1e-5)
        assert np.allclose(a.alpha, b.alpha, atol=1e-10)

    def test_result_metadata(self, rng, basis_128):
        phi = bernoulli_matrix(48, 128, seed=9)
        y = phi @ basis_128.synthesize(_sparse_vector(128, 6, rng))
        result = solve_bpdn(phi, basis_128, y, sigma=1e-4)
        assert result.solver == "pdhg-bpdn"
        assert result.iterations >= 1
        assert result.objective >= 0
        assert "tau" in result.info
