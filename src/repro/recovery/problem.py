"""Shared problem setup for CS recovery: the composed operator A = Φ Ψ.

Every solver works on ``y = A alpha + noise`` with ``A = Φ Ψ`` (sensing
matrix times synthesis basis).  For the window sizes used here (n ≈ 512)
the dense composition is small, and caching it per (Φ, basis) pair makes
repeated window solves BLAS-bound instead of transform-bound.

Beyond the composed matrix itself, a :class:`CsProblem` memoizes every
piece of per-operator precomputation the solvers need — the Gram matrix,
the squared operator norm and the ADMM Cholesky factor of ``I + A^T A``
— so a problem shared across thousands of windows (see
:mod:`repro.recovery.opcache`) pays each factorization exactly once per
process instead of once per window.  The
dense Ψ and the CSR Ψ/Ψ^T pair of the Eq. 1 kernel are memoized one
level up, on the basis, and shared by every problem over it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.devtools.contracts import check_finite, check_shape
from repro.sensing.matrices import operator_norm
from repro.wavelets.operators import SynthesisBasis

__all__ = ["CsProblem"]


class CsProblem:
    """The composed measurement operator for one (Φ, Ψ) configuration.

    Parameters
    ----------
    phi:
        Dense ``m x n`` sensing matrix.
    basis:
        Orthonormal synthesis basis Ψ on ``R^n``.

    Notes
    -----
    Since Ψ is orthonormal, ``||A|| = ||Φ||`` and ``A^T = Ψ^T Φ^T``; the
    dense ``A`` is materialized once and reused across windows.
    """

    def __init__(self, phi: np.ndarray, basis: SynthesisBasis) -> None:
        phi = np.asarray(phi, dtype=float)
        if phi.ndim != 2:
            raise ValueError("phi must be a 2-D matrix")
        phi = check_finite(phi, name="phi")
        if phi.shape[1] != basis.n:
            raise ValueError(
                f"phi has {phi.shape[1]} columns but the basis length is {basis.n}"
            )
        self.phi = phi
        self.basis = basis
        self._a: Optional[np.ndarray] = None
        self._opnorm_sq: Optional[float] = None
        self._gram: Optional[np.ndarray] = None
        self._admm_factor: Optional[Tuple[np.ndarray, bool]] = None

    @property
    def m(self) -> int:
        """Number of measurements."""
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        """Signal / coefficient dimension."""
        return self.phi.shape[1]

    @property
    def psi(self) -> np.ndarray:
        """The dense synthesis matrix Ψ, shape ``(n, n)``, shared read-only
        with every problem over the same basis."""
        return self.basis.as_matrix()

    @property
    def a(self) -> np.ndarray:
        """The dense composed operator ``A = Φ Ψ``, shape ``(m, n)`` (lazy).

        Building it also builds the basis's CSR Ψ/Ψ^T pair, so one first
        touch pays for all the operator state of the Eq. 1 kernel.
        """
        if self._a is None:
            self.basis.matvec_pair()
            self._a = self.phi @ self.psi
        return self._a

    def opnorm_sq(self) -> float:
        """Upper bound on ``||A||^2`` (= ``||Φ||^2`` by orthonormality)."""
        if self._opnorm_sq is None:
            self._opnorm_sq = operator_norm(self.phi) ** 2 * 1.01
        return self._opnorm_sq

    def forward(self, alpha: np.ndarray) -> np.ndarray:
        """``A alpha``: coefficients of shape ``(n,)`` to measurements ``(m,)``."""
        return self.a @ check_shape(alpha, (self.n,), name="alpha")

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """``A^T z``: measurements of shape ``(m,)`` to coefficients ``(n,)``."""
        return self.a.T @ check_shape(z, (self.m,), name="z")

    def measure_signal(self, x: np.ndarray) -> np.ndarray:
        """Direct measurement of a signal window: ``Φ x``, shape ``(m,)``."""
        return self.phi @ check_shape(
            np.asarray(x, dtype=float), (self.n,), name="x"
        )

    def gram(self) -> np.ndarray:
        """The Gram matrix ``A^T A``, shape ``(n, n)`` (built lazily)."""
        if self._gram is None:
            a = self.a
            self._gram = a.T @ a
        return self._gram

    def admm_factor(self) -> Tuple[np.ndarray, bool]:
        """Cached Cholesky factorization of ``I + A^T A`` (for ADMM).

        Returned in :func:`scipy.linalg.cho_factor` form, ready for
        :func:`scipy.linalg.cho_solve`; computed once per problem, which
        turns the ADMM per-window setup (an ``O(n^3)`` factorization at
        ``n = 512``) into a one-time cost per operator.
        """
        if self._admm_factor is None:
            from scipy.linalg import cho_factor

            self._admm_factor = cho_factor(np.eye(self.n) + self.gram())
        return self._admm_factor
