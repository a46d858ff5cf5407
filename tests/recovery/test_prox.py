"""Tests of proximal operators and projections (variational properties).

The box projection lives with the Eq. 1 kernel's test oracle
(``tests/recovery/pdhg_oracle.py``), whose box block applies it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.recovery.prox import project_l2_ball, soft_threshold
from tests.recovery.pdhg_oracle import project_box

vec = st.lists(
    st.floats(-100, 100, allow_nan=False), min_size=1, max_size=40
).map(lambda xs: np.asarray(xs))


class TestSoftThreshold:
    def test_known_values(self):
        v = np.array([3.0, -2.0, 0.5, 0.0])
        assert np.allclose(soft_threshold(v, 1.0), [2.0, -1.0, 0.0, 0.0])

    def test_zero_threshold_is_identity(self, rng):
        v = rng.standard_normal(10)
        assert np.allclose(soft_threshold(v, 0.0), v)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(3), -0.1)

    @settings(max_examples=40, deadline=None)
    @given(v=vec, t=st.floats(0, 10, allow_nan=False))
    def test_prox_optimality(self, v, t):
        """p = prox_{t|.|_1}(v) minimizes 0.5||z-v||^2 + t||z||_1: check it
        beats random perturbations of itself."""
        p = soft_threshold(v, t)

        def objective(z):
            return 0.5 * np.sum((z - v) ** 2) + t * np.sum(np.abs(z))

        base = objective(p)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert base <= objective(p + 0.1 * rng.standard_normal(v.size)) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(v=vec, w=vec, t=st.floats(0, 5, allow_nan=False))
    def test_nonexpansive(self, v, w, t):
        n = min(v.size, w.size)
        a = soft_threshold(v[:n], t)
        b = soft_threshold(w[:n], t)
        assert np.linalg.norm(a - b) <= np.linalg.norm(v[:n] - w[:n]) + 1e-9


class TestL2BallProjection:
    def test_inside_unchanged(self):
        v = np.array([0.1, 0.2])
        c = np.zeros(2)
        assert np.allclose(project_l2_ball(v, c, 1.0), v)

    def test_outside_lands_on_boundary(self, rng):
        c = rng.standard_normal(8)
        v = c + 5.0 * rng.standard_normal(8)
        p = project_l2_ball(v, c, 2.0)
        assert np.linalg.norm(p - c) == pytest.approx(2.0)

    def test_zero_radius_returns_center(self, rng):
        c = rng.standard_normal(5)
        v = c + rng.standard_normal(5)
        assert np.allclose(project_l2_ball(v, c, 0.0), c)

    def test_idempotent(self, rng):
        c = rng.standard_normal(6)
        v = c + 10 * rng.standard_normal(6)
        p1 = project_l2_ball(v, c, 1.5)
        p2 = project_l2_ball(p1, c, 1.5)
        assert np.allclose(p1, p2)

    def test_projection_is_closest_point(self, rng):
        c = np.zeros(4)
        v = rng.standard_normal(4) * 10
        p = project_l2_ball(v, c, 1.0)
        for _ in range(10):
            z = rng.standard_normal(4)
            z = z / max(np.linalg.norm(z), 1.0)  # a feasible point
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - z) + 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            project_l2_ball(np.ones(3), np.ones(4), 1.0)


class TestBoxProjection:
    def test_clips_elementwise(self):
        v = np.array([-2.0, 0.5, 3.0])
        p = project_box(v, np.zeros(3), np.ones(3))
        assert np.allclose(p, [0.0, 0.5, 1.0])

    def test_scalar_bounds_broadcast(self):
        v = np.array([-5.0, 5.0])
        assert np.allclose(project_box(v, -1.0, 1.0), [-1.0, 1.0])

    def test_idempotent(self, rng):
        v = rng.standard_normal(20) * 4
        lo, hi = -np.ones(20), np.ones(20)
        p = project_box(v, lo, hi)
        assert np.allclose(project_box(p, lo, hi), p)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_degenerate_box_pins_value(self):
        p = project_box(np.array([7.0]), np.array([2.0]), np.array([2.0]))
        assert p[0] == 2.0
