"""Tests of the synthesis-basis operators (the Ψ of Eq. 1)."""

import numpy as np
import pytest

from repro.wavelets.operators import (
    DctBasis,
    IdentityBasis,
    WaveletBasis,
    make_basis,
)

ALL_BASES = [
    WaveletBasis(64, "haar"),
    WaveletBasis(64, "db4"),
    WaveletBasis(64, "sym5", levels=2),
    DctBasis(64),
    IdentityBasis(64),
]


@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.name)
class TestOrthonormalContract:
    """Every concrete basis must be an orthonormal transform."""

    def test_analyze_inverts_synthesize(self, basis, rng):
        alpha = rng.standard_normal(64)
        assert np.allclose(basis.analyze(basis.synthesize(alpha)), alpha, atol=1e-9)

    def test_synthesize_inverts_analyze(self, basis, rng):
        x = rng.standard_normal(64)
        assert np.allclose(basis.synthesize(basis.analyze(x)), x, atol=1e-9)

    def test_isometry(self, basis, rng):
        x = rng.standard_normal(64)
        assert np.linalg.norm(basis.analyze(x)) == pytest.approx(
            np.linalg.norm(x)
        )

    def test_matrix_is_orthogonal(self, basis):
        mat = basis.as_matrix()
        assert np.allclose(mat.T @ mat, np.eye(64), atol=1e-8)

    def test_adjoint_identity(self, basis, rng):
        """<Ψa, x> == <a, Ψ^T x> — the property PDHG relies on."""
        a = rng.standard_normal(64)
        x = rng.standard_normal(64)
        lhs = float(np.dot(basis.synthesize(a), x))
        rhs = float(np.dot(a, basis.analyze(x)))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_rejects_wrong_length(self, basis):
        with pytest.raises(ValueError):
            basis.analyze(np.ones(63))


class TestMatvecIntoPair:
    """The Eq. 1 loop's buffered Ψ/Ψ^T products are ``op @ v`` bit for bit.

    CSR bases run scipy's private ``csr_matvec`` directly; a scipy
    release that changes the kernel behind ``op @ v`` fails here first.
    """

    @pytest.mark.parametrize(
        "basis, sparse_form",
        [(WaveletBasis(512, "db4"), True), (DctBasis(512), False)],
        ids=["db4", "dct"],
    )
    def test_bit_equal_to_matmul(self, basis, sparse_form, rng):
        psi, psi_t = basis.matvec_pair()
        assert hasattr(psi, "indptr") == sparse_form
        into, into_t = basis.matvec_into_pair()
        out = np.full(512, np.nan)  # stale contents must not leak through
        for _ in range(5):
            v = rng.standard_normal(512) * 10.0 ** rng.integers(-3, 4)
            assert into(v, out) is out
            assert np.array_equal(out, psi @ v)
            assert into_t(v, out) is out
            assert np.array_equal(out, psi_t @ v)


class TestWaveletBasisSpecifics:
    def test_default_levels_are_max(self):
        basis = WaveletBasis(512, "db4")
        assert basis.levels == 6

    def test_explicit_levels(self):
        assert WaveletBasis(512, "db4", levels=3).levels == 3

    def test_subband_slices_partition(self):
        basis = WaveletBasis(128, "haar", levels=3)
        slices = basis.subband_slices()
        total = sum(s.stop - s.start for s in slices)
        assert total == 128

    def test_incompatible_window_rejected(self):
        with pytest.raises(ValueError):
            WaveletBasis(100, "db4", levels=3)

    def test_ecg_is_compressible(self, record_clean):
        """The substrate sanity the whole paper rests on: ECG windows need
        few wavelet coefficients (sparsity drives CS recovery)."""
        basis = WaveletBasis(512, "db4")
        x = record_clean.signal_mv()[:512]
        k99 = basis.sparsity_profile(x, energy=0.99)
        assert k99 < 512 * 0.2

    def test_white_noise_is_not_compressible(self, rng):
        basis = WaveletBasis(512, "db4")
        k99 = basis.sparsity_profile(rng.standard_normal(512), energy=0.99)
        assert k99 > 512 * 0.5


class TestDctBasis:
    def test_constant_signal_hits_dc_bin(self):
        basis = DctBasis(32)
        alpha = basis.analyze(np.ones(32))
        assert abs(alpha[0]) == pytest.approx(np.sqrt(32))
        assert np.allclose(alpha[1:], 0.0, atol=1e-10)

    def test_cosine_is_sparse(self):
        basis = DctBasis(64)
        k = np.arange(64)
        x = np.cos(np.pi * (k + 0.5) * 5 / 64)
        alpha = basis.analyze(x)
        assert np.argmax(np.abs(alpha)) == 5


class TestMakeBasis:
    def test_spec_strings(self):
        assert make_basis(64, "dct").name == "dct"
        assert make_basis(64, "identity").name == "identity"
        assert make_basis(64, "db4").name.startswith("db4")
        assert make_basis(64, "haar").name.startswith("haar")

    def test_bad_spec_raises(self):
        with pytest.raises(ValueError):
            make_basis(64, "nonsense")

    def test_sparsity_profile_validation(self):
        basis = IdentityBasis(8)
        with pytest.raises(ValueError):
            basis.sparsity_profile(np.ones(8), energy=0.0)
        assert basis.sparsity_profile(np.zeros(8)) == 0
