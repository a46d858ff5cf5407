"""Tests of the hybrid (box-constrained) recovery — the paper's Eq. 1."""

import numpy as np
import pytest

from repro.metrics.quality import snr_db
from repro.recovery.eq1 import solve_bpdn, solve_hybrid
from repro.recovery.pdhg import PdhgSettings
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import bernoulli_matrix

SETTINGS = PdhgSettings(max_iter=2500, tol=1e-5)


def _window(record, basis, start=0):
    n = basis.n
    x = record.signal_mv()[start : start + n]
    return x - float(np.mean(x))


def _bounds_for(x, step):
    lower = np.floor(x / step) * step
    return lower, lower + step


class TestEq1Solution:
    def test_solution_respects_box(self, record_clean, basis_128):
        x = _window(record_clean, basis_128)
        phi = bernoulli_matrix(32, 128, seed=0)
        lower, upper = _bounds_for(x, 0.08)
        result = solve_hybrid(
            phi, basis_128, phi @ x, 1e-3, lower, upper, settings=SETTINGS
        )
        tol = 1e-2
        assert np.all(result.x >= lower - tol)
        assert np.all(result.x <= upper + tol)

    def test_solution_respects_ball(self, record_clean, basis_128):
        x = _window(record_clean, basis_128)
        phi = bernoulli_matrix(32, 128, seed=1)
        y = phi @ x
        sigma = 0.05
        lower, upper = _bounds_for(x, 0.08)
        result = solve_hybrid(
            phi, basis_128, y, sigma, lower, upper, settings=SETTINGS
        )
        assert result.residual_norm <= sigma * 1.10

    def test_beats_normal_cs_at_high_compression(self, record_clean, basis_128):
        """The paper's central claim at window scale."""
        x = _window(record_clean, basis_128)
        phi = bernoulli_matrix(16, 128, seed=2)  # 87.5% CR
        y = phi @ x
        lower, upper = _bounds_for(x, 0.08)
        hybrid = solve_hybrid(
            phi, basis_128, y, 1e-3, lower, upper, settings=SETTINGS
        )
        normal = solve_bpdn(phi, basis_128, y, 1e-3, settings=SETTINGS)
        assert snr_db(x, hybrid.x) > snr_db(x, normal.x) + 5.0

    def test_tight_box_pins_solution(self, record_clean, basis_128):
        """As d -> 0 the box alone determines x regardless of y."""
        x = _window(record_clean, basis_128)
        phi = bernoulli_matrix(8, 128, seed=3)
        lower, upper = _bounds_for(x, 1e-4)
        result = solve_hybrid(
            phi, basis_128, phi @ x, 1.0, lower, upper, settings=SETTINGS
        )
        assert np.max(np.abs(result.x - x)) < 5e-3

    def test_wide_box_reduces_to_bpdn(self, record_clean, basis_128):
        """A vacuous box must reproduce the unconstrained BPDN solution."""
        x = _window(record_clean, basis_128)
        phi = bernoulli_matrix(64, 128, seed=4)
        y = phi @ x
        huge = 1e6 * np.ones(128)
        strict = PdhgSettings(max_iter=8000, tol=1e-7)
        hybrid = solve_hybrid(phi, basis_128, y, 1e-3, -huge, huge, settings=strict)
        normal = solve_bpdn(phi, basis_128, y, 1e-3, settings=strict)
        assert snr_db(x, hybrid.x) == pytest.approx(snr_db(x, normal.x), abs=1.5)


class TestValidation:
    def test_empty_box_rejected(self, basis_128):
        phi = bernoulli_matrix(16, 128, seed=5)
        lo = np.ones(128)
        hi = np.zeros(128)
        with pytest.raises(ValueError):
            solve_hybrid(phi, basis_128, np.zeros(16), 0.1, lo, hi)

    def test_wrong_bound_shape_rejected(self, basis_128):
        phi = bernoulli_matrix(16, 128, seed=6)
        with pytest.raises(ValueError):
            solve_hybrid(
                phi, basis_128, np.zeros(16), 0.1, np.zeros(5), np.ones(5)
            )

    def test_problem_reuse_consistent(self, record_clean, basis_128):
        x = _window(record_clean, basis_128)
        phi = bernoulli_matrix(32, 128, seed=7)
        prob = CsProblem(phi, basis_128)
        lower, upper = _bounds_for(x, 0.08)
        a = solve_hybrid(
            phi, basis_128, phi @ x, 1e-3, lower, upper,
            settings=SETTINGS, problem=prob,
        )
        b = solve_hybrid(
            phi, basis_128, phi @ x, 1e-3, lower, upper, settings=SETTINGS
        )
        assert np.allclose(a.x, b.x, atol=1e-9)

    def test_solver_label(self, record_clean, basis_128):
        x = _window(record_clean, basis_128)
        phi = bernoulli_matrix(32, 128, seed=8)
        lower, upper = _bounds_for(x, 0.1)
        result = solve_hybrid(
            phi, basis_128, phi @ x, 1e-2, lower, upper, settings=SETTINGS
        )
        assert result.solver == "pdhg-hybrid"
        assert "violation_1" in result.info
