"""Sparsifying-basis operators Ψ used by the CS recovery.

The recovery problem (paper Eq. 1) works with a synthesis operator Ψ mapping
coefficients α to signal samples ``x = Ψ α``.  All bases here are
*orthonormal*, so the analysis map is simply the transpose/inverse — a fact
the solvers exploit (``opnorm(Ψ) = 1`` and projections in signal space pull
back exactly).

Three bases are provided:

* :class:`WaveletBasis` — periodized orthogonal multilevel DWT (default
  db4, the basis used in the authors' earlier ECG-CS work);
* :class:`DctBasis` — orthonormal DCT-II;
* :class:`IdentityBasis` — for experiments on signals sparse in the sample
  domain.

Each exposes ``synthesize``/``analyze``/``as_matrix`` plus the window
length ``n``; :func:`make_basis` builds one from a config string.  The
dense matrix and its matvec pair are built once per basis instance and
shared read-only by every problem that uses the basis.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.fft import dct as _dct, idct as _idct

from repro.wavelets.dwt import WaveletCoeffs, coeff_slices, max_level, wavedec, waverec
from repro.wavelets.filters import WaveletFilter, wavelet

__all__ = [
    "MatvecOperator",
    "SynthesisBasis",
    "WaveletBasis",
    "DctBasis",
    "IdentityBasis",
    "make_basis",
]

#: A matrix usable as ``op @ v``: dense, or CSR when mostly zero.
MatvecOperator = Union[np.ndarray, sparse.csr_matrix]

#: Largest non-zero fraction for which :meth:`SynthesisBasis.matvec_pair`
#: stores CSR (db4 at n = 512 is 8.4% non-zero; a DCT is dense).
_CSR_MAX_DENSITY = 0.25


class SynthesisBasis(abc.ABC):
    """Abstract orthonormal synthesis basis on ``R^n``.

    Subclasses implement the coefficient-to-signal map and its inverse;
    orthonormality (``analyze == synthesize^{-1} == synthesize^T``) is a
    contract verified by the test suite for every concrete basis.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("window length must be positive")
        self._n = n
        self._matrix: Optional[np.ndarray] = None
        self._matvec_pair: Optional[Tuple[MatvecOperator, MatvecOperator]] = None

    @property
    def n(self) -> int:
        """Window length (and coefficient count — the basis is square)."""
        return self._n

    @abc.abstractmethod
    def synthesize(self, alpha: np.ndarray) -> np.ndarray:
        """Map coefficients ``alpha`` to samples ``x = Ψ alpha``; both shape ``(n,)``."""

    @abc.abstractmethod
    def analyze(self, x: np.ndarray) -> np.ndarray:
        """Map samples to coefficients ``alpha = Ψ^T x``; both shape ``(n,)``."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable basis identifier."""

    def _check_vec(self, v: np.ndarray) -> np.ndarray:
        arr = np.asarray(v, dtype=float)
        if arr.ndim != 1 or arr.size != self._n:
            raise ValueError(f"expected a vector of length {self._n}")
        return arr

    def as_matrix(self) -> np.ndarray:
        """Dense synthesis matrix, shape ``(n, n)`` (columns are atoms).

        Built on first call and returned read-only from then on, so every
        problem sharing this basis shares one array.
        """
        if self._matrix is None:
            eye = np.eye(self._n)
            cols = [self.synthesize(eye[:, j]) for j in range(self._n)]
            matrix = np.stack(cols, axis=1)
            matrix.setflags(write=False)
            self._matrix = matrix
        return self._matrix

    def matvec_pair(self) -> Tuple[MatvecOperator, MatvecOperator]:
        """``(Ψ, Ψ^T)`` in their fastest form for repeated matvecs.

        CSR when at most a quarter of Ψ is non-zero (wavelet bases), the
        dense matrix and its transposed view otherwise; built once per
        instance, read-only.
        """
        if self._matvec_pair is None:
            psi = self.as_matrix()
            if np.count_nonzero(psi) <= _CSR_MAX_DENSITY * psi.size:
                pair = (sparse.csr_matrix(psi), sparse.csr_matrix(psi.T))
                for op in pair:
                    for arr in (op.data, op.indices, op.indptr):
                        arr.setflags(write=False)
            else:
                pair = (psi, psi.T)
            self._matvec_pair = pair
        return self._matvec_pair

    def sparsity_profile(self, x: np.ndarray, energy: float = 0.99) -> int:
        """Smallest k such that the k largest coefficients capture
        ``energy`` of the total coefficient energy — a direct measure of
        how compressible ``x`` is in this basis."""
        if not 0.0 < energy <= 1.0:
            raise ValueError("energy must be in (0, 1]")
        alpha = self.analyze(self._check_vec(x))
        mags = np.sort(np.abs(alpha))[::-1] ** 2
        total = float(np.sum(mags))
        if total == 0.0:
            return 0
        cum = np.cumsum(mags) / total
        return int(np.searchsorted(cum, energy) + 1)


class WaveletBasis(SynthesisBasis):
    """Orthonormal multilevel periodized wavelet basis.

    Parameters
    ----------
    n:
        Window length; must be divisible by ``2**levels``.
    wavelet_name:
        Any name accepted by :func:`repro.wavelets.filters.wavelet`.
    levels:
        Decomposition depth; defaults to the maximum sensible depth.
    """

    def __init__(
        self, n: int, wavelet_name: str = "db4", levels: Optional[int] = None
    ) -> None:
        super().__init__(n)
        self._filter: WaveletFilter = wavelet(wavelet_name)
        depth = max_level(n, self._filter) if levels is None else levels
        if depth < 1:
            raise ValueError(
                f"window of length {n} cannot support a {wavelet_name} DWT"
            )
        if n % (1 << depth):
            raise ValueError(
                f"window length {n} is not divisible by 2**{depth}"
            )
        self._levels = depth

    @property
    def name(self) -> str:
        return f"{self._filter.name}-L{self._levels}"

    @property
    def levels(self) -> int:
        """Decomposition depth J."""
        return self._levels

    @property
    def wavelet_name(self) -> str:
        """Underlying wavelet filter name."""
        return self._filter.name

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """Flat DWT coefficients ``Ψ^T x``, shape ``(n,)``."""
        return wavedec(self._check_vec(x), self._filter, self._levels).flatten()

    def synthesize(self, alpha: np.ndarray) -> np.ndarray:
        """Signal from the flat coefficient vector, shape ``(n,)``."""
        coeffs = WaveletCoeffs.from_flat(
            self._check_vec(alpha), self._n, self._levels, self._filter.name
        )
        return waverec(coeffs)

    def subband_slices(self) -> list:
        """Slices of the flat coefficient vector per subband."""
        return coeff_slices(self._n, self._levels)


class DctBasis(SynthesisBasis):
    """Orthonormal DCT-II basis (type-2 analysis, type-3 synthesis)."""

    def __init__(self, n: int) -> None:
        super().__init__(n)

    @property
    def name(self) -> str:
        return "dct"

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """DCT-II coefficients of ``x``, shape ``(n,)``."""
        return _dct(self._check_vec(x), type=2, norm="ortho")

    def synthesize(self, alpha: np.ndarray) -> np.ndarray:
        """Signal from DCT coefficients, shape ``(n,)``."""
        return _idct(self._check_vec(alpha), type=2, norm="ortho")


class IdentityBasis(SynthesisBasis):
    """The trivial basis Ψ = I (signal already sparse in sample domain)."""

    @property
    def name(self) -> str:
        return "identity"

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """A copy of ``x`` (Ψ = I), shape ``(n,)``."""
        return self._check_vec(x).copy()

    def synthesize(self, alpha: np.ndarray) -> np.ndarray:
        """A copy of ``alpha`` (Ψ = I), shape ``(n,)``."""
        return self._check_vec(alpha).copy()


def make_basis(
    n: int, spec: str = "db4", levels: Optional[int] = None
) -> SynthesisBasis:
    """Build a basis from a short spec string.

    ``"dct"`` and ``"identity"`` name the fixed bases; anything else is
    interpreted as a wavelet name (``"haar"``, ``"db4"``, ``"sym6"``, ...).
    """
    key = spec.strip().lower()
    if key == "dct":
        return DctBasis(n)
    if key in ("identity", "eye", "dirac"):
        return IdentityBasis(n)
    return WaveletBasis(n, key, levels)
