"""Tests of the empirical phase-transition measurement."""

import pytest

from benchmarks.baselines import empirical_transition, success_probability
from repro.recovery.pdhg import PdhgSettings

FAST = PdhgSettings(max_iter=2500, tol=1e-6)


class TestSuccessProbability:
    def test_easy_regime_succeeds(self):
        # s=2 of n=48 from m=32: deep inside the success region.
        rate = success_probability(
            48, 32, 2, n_trials=5, seed=0, settings=FAST
        )
        assert rate == 1.0

    def test_impossible_regime_fails(self):
        # s = m: no null-space face survives; recovery cannot be exact.
        rate = success_probability(
            48, 12, 12, n_trials=5, seed=1, settings=FAST
        )
        assert rate < 0.5

    def test_monotone_in_m(self):
        """More measurements cannot hurt (statistically)."""
        hard = success_probability(48, 12, 6, n_trials=8, seed=2, settings=FAST)
        easy = success_probability(48, 36, 6, n_trials=8, seed=2, settings=FAST)
        assert easy >= hard

    def test_validation(self):
        with pytest.raises(ValueError):
            success_probability(10, 12, 2)
        with pytest.raises(ValueError):
            success_probability(10, 8, 0)
        with pytest.raises(ValueError):
            success_probability(10, 8, 2, n_trials=0)


class TestEmpiricalTransition:
    def test_curve_shape(self):
        """The Donoho-Tanner curve rises with delta."""
        points = empirical_transition(
            n=48,
            deltas=(0.25, 0.75),
            rhos=(0.1, 0.3, 0.5, 0.7, 0.9),
            n_trials=6,
        )
        assert len(points) == 2
        lo, hi = points
        assert hi.rho_star >= lo.rho_star

    def test_rates_recorded(self):
        points = empirical_transition(
            n=32, deltas=(0.5,), rhos=(0.2, 0.8), n_trials=4
        )
        (pt,) = points
        assert len(pt.success_at) == 2
        # Low rho easier than high rho.
        assert pt.success_at[0][1] >= pt.success_at[1][1]

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_transition(n=4)
