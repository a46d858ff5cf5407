"""Differential tests: the batched ADMM engine against per-window ADMM.

The batched solver is the scalar solver's arithmetic reordered into
GEMMs, so its solutions must track a per-window loop of
:func:`~repro.recovery.admm.solve_bpdn_admm` to BLAS rounding.  These
tests pin the agreement at 1e-8 (absolute, coefficient level) over the
CR grid — far looser than the observed ~1e-12, far tighter
than anything a logic bug would pass.  The batched BSBL engines are
checked against their scalar oracles in ``test_properties.py``.
"""

import numpy as np
import pytest

from repro.recovery.admm import solve_bpdn_admm
from repro.recovery.batched import solve_bpdn_admm_batch, stack_measurements
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import bernoulli_matrix
from repro.wavelets.operators import WaveletBasis

#: Max per-coefficient disagreement allowed between batched and loop
#: solutions (see module docstring).
AGREEMENT_ATOL = 1e-8

#: Measurement counts at n=128 — a 3-point CR grid (75%, ~69%, 50%).
CR_MEASUREMENTS = (32, 40, 64)

N = 128
N_WINDOWS = 5


@pytest.fixture(scope="module")
def windows():
    """A shared (problem, ys) set per m — deterministic synthetic windows."""
    rng = np.random.default_rng(42)
    basis = WaveletBasis(N, "db4")
    out = {}
    for m in CR_MEASUREMENTS:
        problem = CsProblem(bernoulli_matrix(m, N, seed=7), basis)
        ys = []
        for _ in range(N_WINDOWS):
            alpha = np.zeros(N)
            alpha[rng.choice(N, 8, replace=False)] = rng.standard_normal(8) * 2.0
            x = basis.synthesize(alpha)
            ys.append(problem.phi @ x + 0.01 * rng.standard_normal(m))
        out[m] = (problem, ys)
    return out


def _sigma(ys):
    return 0.05 * float(np.linalg.norm(ys[0]))


class TestBatchedMatchesLoop:
    @pytest.mark.parametrize("m", CR_MEASUREMENTS)
    def test_agreement(self, windows, m):
        problem, ys = windows[m]
        sigma = _sigma(ys)
        batched = solve_bpdn_admm_batch(problem, ys, sigma, max_iter=400, tol=1e-9)
        assert len(batched) == len(ys)
        for y, b in zip(ys, batched):
            s = solve_bpdn_admm(
                problem.phi, problem.basis, y, sigma,
                max_iter=400, tol=1e-9, problem=problem,
            )
            assert np.max(np.abs(b.alpha - s.alpha)) < AGREEMENT_ATOL
            assert np.max(np.abs(b.x - s.x)) < AGREEMENT_ATOL
            assert b.iterations == s.iterations
            assert b.converged == s.converged


class TestBatchSolvers:
    def test_convergence_masking_freezes_columns(self, windows):
        """A converged column's final iterate must not drift while
        stragglers keep iterating: solving it alone gives the same answer
        as solving it inside a mixed stack."""
        problem, ys = windows[40]
        sigma = _sigma(ys)
        together = solve_bpdn_admm_batch(problem, ys, sigma, max_iter=400, tol=1e-6)
        alone = [
            solve_bpdn_admm_batch(problem, [y], sigma, max_iter=400, tol=1e-6)[0]
            for y in ys
        ]
        for t, a in zip(together, alone):
            assert t.iterations == a.iterations
            assert np.max(np.abs(t.alpha - a.alpha)) < AGREEMENT_ATOL

    def test_admm_results_respect_ball(self, windows):
        problem, ys = windows[64]
        sigma = 0.05 * float(np.linalg.norm(ys[0]))
        results = solve_bpdn_admm_batch(problem, ys, sigma, max_iter=2000)
        for r in results:
            assert r.residual_norm <= sigma * 1.10

    def test_validation(self, windows):
        problem, ys = windows[40]
        for bad_sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                solve_bpdn_admm_batch(problem, ys, sigma=bad_sigma)
        with pytest.raises(ValueError):
            solve_bpdn_admm_batch(problem, ys, sigma=1.0, rho=0.0)

    def test_stack_measurements_validation(self, windows):
        problem, ys = windows[40]
        stacked = stack_measurements(problem, ys)
        assert stacked.shape == (problem.m, len(ys))
        assert np.array_equal(stacked[:, 2], ys[2])
        with pytest.raises(ValueError):
            stack_measurements(problem, [])
        with pytest.raises(ValueError):
            stack_measurements(problem, [np.zeros(problem.m - 1)])
