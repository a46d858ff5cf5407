"""The ``out=``-capable hot-loop operations of the backend protocol.

The workspace engines route every per-iteration temporary into leased
buffers through ``matmul``/``soft_threshold`` — these tests
pin the contract that makes that safe: the ``out=`` form of each op is
bit-identical to its expression form (signed zeros included), writes
into exactly the passed buffer, and leaves its inputs untouched.
"""

import numpy as np
import pytest

from repro.backend import HOST


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestMatmul:
    def test_out_form_matches_operator_form(self, rng):
        a = rng.standard_normal((12, 8))
        b = rng.standard_normal((8, 5))
        out = np.empty((12, 5))
        result = HOST.matmul(a, b, out=out)
        assert result is out
        assert np.array_equal(out, a @ b)

    def test_none_form_matches_operator_form(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 3))
        assert np.array_equal(HOST.matmul(a, b), a @ b)

    def test_inputs_untouched(self, rng):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        a0, b0 = a.copy(), b.copy()
        HOST.matmul(a, b, out=np.empty((5, 5)))
        assert np.array_equal(a, a0)
        assert np.array_equal(b, b0)


class TestSoftThreshold:
    def _reference(self, v, threshold):
        return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)

    def test_out_form_bit_identical(self, rng):
        v = rng.standard_normal((64, 5)) * 2.0
        out = np.empty_like(v)
        result = HOST.soft_threshold(v, 0.3, out=out)
        assert result is out
        assert np.array_equal(out, self._reference(v, 0.3))

    def test_none_form_matches_reference(self, rng):
        v = rng.standard_normal(32)
        assert np.array_equal(
            HOST.soft_threshold(v, 0.1), self._reference(v, 0.1)
        )

    def test_signed_zeros_match_expression_form(self):
        # Shrunk-to-zero entries keep the sign of the input — the
        # expression form's sign(v) * 0.0 convention.
        v = np.array([0.2, -0.2, 0.0, -0.0, 1.0, -1.0])
        out = np.empty_like(v)
        HOST.soft_threshold(v, 0.5, out=out)
        expected = self._reference(v, 0.5)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    def test_input_untouched(self, rng):
        v = rng.standard_normal(16)
        v0 = v.copy()
        HOST.soft_threshold(v, 0.2, out=np.empty_like(v))
        assert np.array_equal(v, v0)


class TestCholeskyOverwrite:
    def test_overwrite_b_values_identical(self, rng):
        n = 8
        g = rng.standard_normal((n, n))
        spd = g @ g.T + n * np.eye(n)
        factor = HOST.cho_factor(spd)
        b = rng.standard_normal((n, 3))
        reference = HOST.cho_solve(factor, b.copy())
        clobbered = HOST.cho_solve(factor, b, overwrite_b=True)
        assert np.array_equal(clobbered, reference)
