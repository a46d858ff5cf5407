"""Tests of the greedy baselines (OMP, CoSaMP, IHT)."""

import numpy as np
import pytest

from benchmarks.baselines import solve_cosamp, solve_iht, solve_omp
from repro.sensing.matrices import gaussian_matrix
from repro.wavelets.operators import IdentityBasis

N, M, K = 128, 64, 6


def _instance(seed):
    rng = np.random.default_rng(seed)
    basis = IdentityBasis(N)
    phi = gaussian_matrix(M, N, seed=seed)
    alpha = np.zeros(N)
    support = rng.choice(N, K, replace=False)
    alpha[support] = rng.standard_normal(K) + np.sign(rng.standard_normal(K)) * 1.0
    return phi, basis, alpha, phi @ alpha


@pytest.mark.parametrize(
    "solver", [solve_omp, solve_cosamp, solve_iht], ids=["omp", "cosamp", "iht"]
)
class TestExactRecovery:
    def test_recovers_sparse_vector(self, solver):
        phi, basis, alpha, y = _instance(seed=0)
        r = solver(phi, basis, y, k=K)
        assert np.linalg.norm(r.alpha - alpha) < 1e-3 * np.linalg.norm(alpha)

    def test_support_identified(self, solver):
        phi, basis, alpha, y = _instance(seed=1)
        r = solver(phi, basis, y, k=K)
        true_support = set(np.nonzero(alpha)[0])
        found = set(np.argsort(np.abs(r.alpha))[::-1][:K])
        assert found == true_support

    def test_sparsity_bounded_by_k(self, solver):
        phi, basis, alpha, y = _instance(seed=2)
        r = solver(phi, basis, y, k=K)
        assert np.count_nonzero(r.alpha) <= 2 * K  # OMP stops at K; others prune to K

    def test_invalid_k_rejected(self, solver):
        phi, basis, _, y = _instance(seed=3)
        with pytest.raises(ValueError):
            solver(phi, basis, y, k=0)
        with pytest.raises(ValueError):
            solver(phi, basis, y, k=M + 1)

    def test_wrong_y_length_rejected(self, solver):
        phi, basis, _, _ = _instance(seed=4)
        with pytest.raises(ValueError):
            solver(phi, basis, np.zeros(M - 1), k=K)


class TestOmpSpecifics:
    def test_residual_decreases_monotonically_with_k(self):
        phi, basis, alpha, y = _instance(seed=5)
        res = [solve_omp(phi, basis, y, k=k).residual_norm for k in (1, 3, 6)]
        assert res[0] >= res[1] >= res[2]

    def test_early_stop_on_exact_fit(self):
        phi, basis, alpha, y = _instance(seed=6)
        r = solve_omp(phi, basis, y, k=M // 2, tol=1e-10)
        # Stops once the K-sparse signal is matched, well before k=M/2.
        assert r.iterations <= K + 2


class TestIhtSpecifics:
    def test_custom_step(self):
        phi, basis, alpha, y = _instance(seed=7)
        r = solve_iht(phi, basis, y, k=K, step=0.5)
        assert r.info["step"] == 0.5

    def test_bad_step_rejected(self):
        phi, basis, _, y = _instance(seed=8)
        with pytest.raises(ValueError):
            solve_iht(phi, basis, y, k=K, step=-1.0)


class TestCompressibleDegradation:
    def test_greedy_worse_than_expected_on_compressible(self, record_clean):
        """Greedy with small fixed k discards the compressible tail — the
        motivation for convex recovery on ECG."""
        from repro.wavelets.operators import WaveletBasis

        basis = WaveletBasis(128, "db4")
        x = record_clean.signal_mv()[:128]
        x = x - x.mean()
        phi = gaussian_matrix(64, 128, seed=9)
        y = phi @ x
        r = solve_omp(phi, basis, y, k=4)
        rel_err = np.linalg.norm(r.x - x) / np.linalg.norm(x)
        assert rel_err > 0.05  # visibly lossy at k=4
