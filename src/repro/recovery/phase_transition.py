"""Empirical phase-transition measurement for L1 recovery.

The paper's introduction anchors on the sampling bound ``m = s log(n/s)``
(and its worse compressible-signal variant) as *the* obstacle to analog
CS — every extra required measurement is an extra RMPI channel.  The
precise geometry is the Donoho-Tanner phase transition: in the
``(delta, rho) = (m/n, s/m)`` plane, equality-constrained basis pursuit
succeeds with overwhelming probability below a curve and fails above it.

:func:`success_probability` estimates the success rate at one grid point
by Monte-Carlo over random instances; :func:`empirical_transition` sweeps
``delta`` and locates the empirical 50 % crossing, producing the curve the
benchmark prints.  Beyond reproducing textbook geometry, this grounds the
paper's measurement counts: at ECG's effective sparsity the transition
sits exactly where Fig. 7 shows normal CS collapsing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.recovery.eq1 import solve_bpdn
from repro.recovery.pdhg import PdhgSettings
from repro.sensing.matrices import gaussian_matrix
from repro.wavelets.operators import IdentityBasis

__all__ = ["success_probability", "empirical_transition", "TransitionPoint"]


def _random_instance(
    n: int, m: int, s: int, rng: np.random.Generator, trial_seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    phi = gaussian_matrix(m, n, seed=trial_seed)
    alpha = np.zeros(n)
    support = rng.choice(n, size=s, replace=False)
    alpha[support] = rng.standard_normal(s)
    return phi, alpha, phi @ alpha


def success_probability(
    n: int,
    m: int,
    s: int,
    *,
    n_trials: int = 10,
    tolerance: float = 1e-2,
    seed: int = 0,
    settings: Optional[PdhgSettings] = None,
) -> float:
    """Monte-Carlo success rate of basis pursuit at one ``(n, m, s)``.

    A trial succeeds when the relative recovery error is below
    ``tolerance``.  Gaussian ensembles and exactly sparse vectors — the
    canonical phase-transition setting.
    """
    if not 1 <= s <= m <= n:
        raise ValueError("need 1 <= s <= m <= n")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    basis = IdentityBasis(n)
    solver_settings = settings or PdhgSettings(max_iter=3000, tol=1e-6)
    rng = np.random.default_rng(seed)
    successes = 0
    for trial in range(n_trials):
        phi, alpha, y = _random_instance(n, m, s, rng, seed * 1000 + trial)
        result = solve_bpdn(
            phi, basis, y, sigma=1e-9, settings=solver_settings
        )
        err = np.linalg.norm(result.alpha - alpha) / max(
            np.linalg.norm(alpha), 1e-12
        )
        if err < tolerance:
            successes += 1
    return successes / n_trials


@dataclass(frozen=True)
class TransitionPoint:
    """One delta column of the empirical transition."""

    delta: float
    m: int
    rho_star: float  # empirical 50% crossing of rho = s/m
    success_at: Tuple[Tuple[float, float], ...]  # (rho, success rate)


def empirical_transition(
    n: int = 64,
    deltas: Sequence[float] = (0.25, 0.5, 0.75),
    rhos: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
    *,
    n_trials: int = 8,
    seed: int = 1,
) -> List[TransitionPoint]:
    """Sweep the (delta, rho) grid and locate the 50 % crossings.

    Small ``n`` keeps this minutes-fast; the transition's location is
    already within a few percent of its asymptote at n = 64.
    """
    if n < 8:
        raise ValueError("n too small for a meaningful transition")
    points: List[TransitionPoint] = []
    for delta in deltas:
        m = max(1, int(round(delta * n)))
        rates = []
        for rho in rhos:
            s = max(1, int(round(rho * m)))
            if s > m:
                rates.append((float(rho), 0.0))
                continue
            rate = success_probability(
                n, m, s, n_trials=n_trials, seed=seed
            )
            rates.append((float(rho), rate))
        # 50% crossing by linear interpolation on the measured curve.
        rho_star = rates[-1][0]
        for (r0, p0), (r1, p1) in zip(rates[:-1], rates[1:]):
            if p0 >= 0.5 > p1:
                if p0 == p1:
                    rho_star = r0
                else:
                    rho_star = r0 + (p0 - 0.5) * (r1 - r0) / (p0 - p1)
                break
        else:
            if rates and rates[0][1] < 0.5:
                rho_star = 0.0
        points.append(
            TransitionPoint(
                delta=float(delta),
                m=m,
                rho_star=float(rho_star),
                success_at=tuple(rates),
            )
        )
    return points
