"""Tests of the measurement-matrix ensembles."""

import numpy as np
import pytest

from repro.sensing.matrices import (
    SensingSpec,
    bernoulli_matrix,
    gaussian_matrix,
    make_matrix,
    mutual_coherence,
    operator_norm,
    sparse_binary_matrix,
)


class TestBernoulli:
    def test_entries_are_scaled_signs(self):
        phi = bernoulli_matrix(16, 64, seed=0)
        assert np.allclose(np.unique(np.abs(phi)), [1 / 4.0])

    def test_shape_and_determinism(self):
        a = bernoulli_matrix(8, 32, seed=7)
        b = bernoulli_matrix(8, 32, seed=7)
        assert a.shape == (8, 32)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, bernoulli_matrix(8, 32, seed=8))

    def test_rows_near_unit_norm(self):
        phi = bernoulli_matrix(32, 128, seed=1)
        # Each row has 128 entries of magnitude 1/sqrt(32): norm = 2.
        assert np.allclose(np.linalg.norm(phi, axis=1), np.sqrt(128 / 32))

    def test_restricted_isometry_statistics(self, rng):
        """Random sparse vectors keep their norm approximately."""
        phi = bernoulli_matrix(128, 256, seed=3)
        for _ in range(10):
            x = np.zeros(256)
            support = rng.choice(256, size=10, replace=False)
            x[support] = rng.standard_normal(10)
            ratio = np.linalg.norm(phi @ x) / np.linalg.norm(x)
            assert 0.6 < ratio < 1.4

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_matrix(65, 64)


class TestGaussian:
    def test_variance(self):
        phi = gaussian_matrix(64, 512, seed=0)
        assert float(np.var(phi)) == pytest.approx(1 / 64.0, rel=0.05)

    def test_zero_mean(self):
        phi = gaussian_matrix(64, 512, seed=0)
        assert abs(float(np.mean(phi))) < 0.01


class TestSparseBinary:
    def test_column_weight(self):
        phi = sparse_binary_matrix(64, 128, nonzeros_per_column=12, seed=0)
        nnz = np.count_nonzero(phi, axis=0)
        assert np.all(nnz == 12)

    def test_values_normalized(self):
        phi = sparse_binary_matrix(64, 128, nonzeros_per_column=16, seed=0)
        vals = np.unique(phi[phi != 0])
        assert np.allclose(vals, 1 / 4.0)

    def test_column_weight_validation(self):
        with pytest.raises(ValueError):
            sparse_binary_matrix(8, 16, nonzeros_per_column=9)


class TestMakeMatrix:
    @pytest.mark.parametrize("kind", ["bernoulli", "gaussian", "sparse_binary"])
    def test_kinds(self, kind):
        phi = make_matrix(kind, 16, 64, seed=1)
        assert phi.shape == (16, 64)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_matrix("fourier", 16, 64)


class TestDiagnostics:
    def test_coherence_of_identity_like(self):
        assert mutual_coherence(np.eye(8)) == pytest.approx(0.0)

    def test_coherence_of_repeated_column(self):
        mat = np.ones((4, 2))
        assert mutual_coherence(mat) == pytest.approx(1.0)

    def test_coherence_random_below_one(self):
        phi = bernoulli_matrix(64, 128, seed=2)
        assert 0.0 < mutual_coherence(phi) < 1.0

    def test_operator_norm_matches_svd(self, rng):
        mat = rng.standard_normal((20, 30))
        exact = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert operator_norm(mat, n_iter=200) == pytest.approx(exact, rel=1e-4)

    def test_operator_norm_zero_matrix(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0


class TestSensingSpec:
    def test_build_matches_direct_call(self):
        spec = SensingSpec(kind="bernoulli", seed=2015)
        assert np.array_equal(
            spec.build(16, 64), bernoulli_matrix(16, 64, seed=2015)
        )

    def test_node_receiver_agreement(self):
        """The property the whole link relies on: same spec → same Φ."""
        spec = SensingSpec()
        assert np.array_equal(spec.build(96, 512), spec.build(96, 512))


class TestSubsampledHadamard:
    def test_rows_orthogonal(self):
        from repro.sensing.matrices import subsampled_hadamard_matrix

        phi = subsampled_hadamard_matrix(16, 64, seed=0)
        gram = phi @ phi.T
        # Distinct Hadamard rows are orthogonal; scaling gives n/m on the
        # diagonal.
        assert np.allclose(np.diag(gram), 64 / 16)
        off = gram - np.diag(np.diag(gram))
        assert np.allclose(off, 0.0, atol=1e-10)

    def test_entries_pm_scaled(self):
        from repro.sensing.matrices import subsampled_hadamard_matrix

        phi = subsampled_hadamard_matrix(8, 32, seed=1)
        assert np.allclose(np.unique(np.abs(phi)), [1 / np.sqrt(8)])

    def test_power_of_two_required(self):
        from repro.sensing.matrices import subsampled_hadamard_matrix

        with pytest.raises(ValueError):
            subsampled_hadamard_matrix(8, 48)

    def test_make_matrix_kind(self):
        phi = make_matrix("hadamard", 16, 64, seed=3)
        assert phi.shape == (16, 64)

    def test_recovery_works(self, rng):
        """The ensemble actually senses: sparse recovery succeeds."""
        from repro.recovery.eq1 import solve_bpdn
        from repro.recovery.pdhg import PdhgSettings
        from repro.sensing.matrices import subsampled_hadamard_matrix
        from repro.wavelets.operators import IdentityBasis

        n, m, k = 64, 32, 4
        phi = subsampled_hadamard_matrix(m, n, seed=4)
        alpha = np.zeros(n)
        alpha[rng.choice(n, k, replace=False)] = rng.standard_normal(k) * 2
        result = solve_bpdn(
            phi, IdentityBasis(n), phi @ alpha, 1e-8,
            settings=PdhgSettings(max_iter=6000, tol=1e-7),
        )
        assert np.linalg.norm(result.alpha - alpha) < 0.05 * np.linalg.norm(alpha)
