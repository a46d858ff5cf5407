"""Differential tests of the fused Eq. 1 kernel against the generic engine.

:func:`repro.recovery.eq1.solve_eq1` is the production decode of both
the hybrid (Eq. 1) and the normal-CS programs.  The oracle is the
generic engine ``solve_l1_constrained`` of
:mod:`tests.recovery.pdhg_oracle`, built from its ``ball_block`` and
``box_block``: the same iteration, step sizes,
relaxation, primal weight rule, cold start and stopping rule, so both
must agree to rounding and stop at the same iteration.  Inputs are the
first windows of the ``SMALL_SCALE`` records at the paper's operating
point (n = 512) and the Fig. 7 CRs.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.codebooks import CodebookKey
from repro.core.config import DEFAULT_CONFIG
from repro.experiments.runner import SMALL_SCALE
from repro.recovery.bsbl import solve_bsbl, solve_bsbl_dequant
from repro.recovery.eq1 import solve_eq1
from repro.recovery.pdhg import PdhgSettings
from repro.recovery.problem import CsProblem
from repro.runtime import stages
from repro.runtime.task import CodebookSpec
from repro.sensing.quantizers import lowres_bounds
from repro.signals.database import load_record
from tests.recovery.pdhg_oracle import ball_block, box_block, solve_l1_constrained

CRS = (50.0, 75.0, 81.0)
ALPHA_ATOL = 1e-8
STEP_RTOL = 1e-12
AMPLITUDES = (0.01, 1.0, 100.0)
# Mean iterations over the first windows at CRS: 0.85x (hybrid) and 0.95x
# (normal) those of one shared dual step (149 hybrid, 417 normal); block
# dual steps read 106.2 and 366.7.
MAX_MEAN_ITERATIONS = {"hybrid": 126, "normal": 396}
HYBRID_SPEC = CodebookSpec.default(
    CodebookKey(
        lowres_bits=DEFAULT_CONFIG.lowres_bits,
        acquisition_bits=DEFAULT_CONFIG.acquisition_bits,
    )
)


@pytest.fixture(scope="module")
def first_windows():
    """The first window of every ``SMALL_SCALE`` record."""
    n = DEFAULT_CONFIG.window_len
    return [
        next(load_record(name, duration_s=2 * n / 360.0).windows(n))
        for name in SMALL_SCALE.record_names
    ]


def _inputs(cr, method, window):
    """``(problem, y, sigma, bounds)`` exactly as the receiver builds them."""
    config = DEFAULT_CONFIG.for_cr(cr)
    spec = HYBRID_SPEC if method == "hybrid" else CodebookSpec.none()
    link = stages.link_for_params(config, method, spec)
    rx = link.receiver
    packet = link.frontend.process_window(window, 0)
    bounds = None
    if method == "hybrid":
        lower, upper = lowres_bounds(
            rx.decode_lowres(packet), config.acquisition_bits, config.lowres_bits
        )
        bounds = (lower - rx.center, upper - rx.center)
    return rx.problem, rx.decode_measurements(packet), rx.sigma(), bounds


def _oracle(problem, y, sigma, bounds, settings):
    blocks = [ball_block(problem, y, sigma)]
    alpha0 = None  # zero start without bounds, as in the kernel
    if bounds is not None:
        blocks.append(box_block(problem.basis, *bounds))
        alpha0 = problem.basis.analyze((bounds[0] + bounds[1]) / 2.0)
    return solve_l1_constrained(
        problem.n,
        blocks,
        settings=settings,
        synthesize=problem.basis.synthesize,
        alpha0=alpha0,
    )


def _assert_agree(kernel, oracle):
    assert kernel.iterations == oracle.iterations
    assert kernel.converged == oracle.converged
    assert set(kernel.info) == set(oracle.info)
    np.testing.assert_allclose(kernel.alpha, oracle.alpha, rtol=0, atol=ALPHA_ATOL)
    np.testing.assert_allclose(kernel.x, oracle.x, rtol=0, atol=ALPHA_ATOL)
    assert kernel.info["lipschitz_sq"] == oracle.info["lipschitz_sq"]
    # The steps follow the adapted primal weight, which both loops compute
    # from iterates that agree to rounding, not bit for bit.
    for key in ("tau", "dual_step", "primal_weight"):
        assert kernel.info[key] == pytest.approx(oracle.info[key], rel=STEP_RTOL)


@pytest.mark.parametrize("method", ["hybrid", "normal"])
@pytest.mark.parametrize("cr", CRS)
def test_matches_generic_engine(first_windows, cr, method):
    settings = DEFAULT_CONFIG.solver
    for window in first_windows:
        problem, y, sigma, bounds = _inputs(cr, method, window)
        kernel = solve_eq1(problem, y, sigma, bounds, settings=settings)
        oracle = _oracle(problem, y, sigma, bounds, settings)
        _assert_agree(kernel, oracle)
        assert kernel.converged
        _assert_feasible(kernel, settings)
        assert kernel.residual_norm == pytest.approx(
            float(np.linalg.norm(problem.a @ kernel.alpha - y)), abs=1e-12
        )


def _assert_feasible(result, settings):
    """A converged solve meets the stopping rule's feasibility test."""
    limit = settings.tol * max(float(np.linalg.norm(result.alpha)), 1.0)
    assert result.info["violation_0"] <= limit
    assert result.info.get("violation_1", 0.0) <= limit


@pytest.mark.parametrize("method", ["hybrid", "normal"])
def test_relaxed_iteration_counts(first_windows, method):
    settings = DEFAULT_CONFIG.solver
    counts = []
    for cr in CRS:
        for window in first_windows:
            problem, y, sigma, bounds = _inputs(cr, method, window)
            result = solve_eq1(problem, y, sigma, bounds, settings=settings)
            assert result.converged
            _assert_feasible(result, settings)
            counts.append(result.iterations)
    assert np.mean(counts) <= MAX_MEAN_ITERATIONS[method], counts


@pytest.mark.parametrize("method", ["hybrid", "normal"])
def test_iteration_cap_reports_unconverged(first_windows, method):
    settings = dataclasses.replace(DEFAULT_CONFIG.solver, max_iter=5)
    problem, y, sigma, bounds = _inputs(81.0, method, first_windows[0])
    kernel = solve_eq1(problem, y, sigma, bounds, settings=settings)
    oracle = _oracle(problem, y, sigma, bounds, settings)
    assert kernel.iterations == oracle.iterations == 5
    assert not kernel.converged and not oracle.converged
    _assert_agree(kernel, oracle)


@pytest.mark.parametrize("method", ["hybrid", "normal"])
def test_zero_radius(first_windows, method):
    settings = dataclasses.replace(DEFAULT_CONFIG.solver, max_iter=300)
    problem, y, _, bounds = _inputs(50.0, method, first_windows[2])
    kernel = solve_eq1(problem, y, 0.0, bounds, settings=settings)
    oracle = _oracle(problem, y, 0.0, bounds, settings)
    _assert_agree(kernel, oracle)


@pytest.mark.parametrize("cr", CRS)
def test_normal_cs_iterations_amplitude_free(first_windows, cr):
    """Scaling ``y`` and ``sigma`` together scales the optimum, not the
    work: the primal weight absorbs the amplitude.  With a fixed
    ``tau/s = 1`` these windows stopped anywhere from iteration 75 (at
    x100) to 3,100 (at x1), a 41x spread."""
    settings = DEFAULT_CONFIG.solver
    for window in first_windows:
        problem, y, sigma, _ = _inputs(cr, "normal", window)
        runs = [
            solve_eq1(problem, f * y, f * sigma, settings=settings) for f in AMPLITUDES
        ]
        assert all(r.converged for r in runs)
        counts = [r.iterations for r in runs]
        assert max(counts) <= 4 * min(counts), counts


@pytest.mark.parametrize("cr", CRS)
def test_hybrid_amplitude_free(first_windows, cr):
    """Scaling ``y``, ``sigma`` and the bounds together scales the optimum,
    not the work or the answer.  With one dual step shared by the ball and
    the box, 16 of the 24 x100 solves over CRS stopped at the first check
    (a 25x spread, up to 19.9% from the x1 solve)."""
    settings = DEFAULT_CONFIG.solver
    for window in first_windows:
        problem, y, sigma, (lower, upper) = _inputs(cr, "hybrid", window)
        runs = [
            solve_eq1(
                problem, f * y, f * sigma, (f * lower, f * upper), settings=settings
            )
            for f in AMPLITUDES
        ]
        assert all(r.converged for r in runs)
        counts = [r.iterations for r in runs]
        assert min(counts) > settings.check_every, counts
        assert max(counts) <= 6 * min(counts), counts
        reference = runs[AMPLITUDES.index(1.0)].x
        for f, r in zip(AMPLITUDES, runs):
            distance = np.linalg.norm(r.x / f - reference) / np.linalg.norm(reference)
            assert distance <= 0.025, (f, distance)


@pytest.mark.parametrize("cr", CRS)
def test_ball_scale_free(first_windows, cr):
    """Scaling the ball block (``Φ``, ``y`` and ``sigma`` by ``c``) leaves
    every iterate unchanged: its dual step is ``s/||A||^2`` and the weight
    rule reads its dual move as ``||A|| u``.  Checked over 100 iterations
    that never stop (measured 6e-16 of ``||alpha||``); with one shared
    dual step the iterates differed by up to 3.2e-2 of ``||alpha||``."""
    settings = PdhgSettings(max_iter=100, tol=1e-12)
    for window in first_windows:
        problem, y, sigma, bounds = _inputs(cr, "hybrid", window)
        reference = solve_eq1(problem, y, sigma, bounds, settings=settings).alpha
        for c in (0.1, 10.0):
            scaled = CsProblem(c * problem.phi, problem.basis)
            alpha = solve_eq1(scaled, c * y, c * sigma, bounds, settings=settings).alpha
            np.testing.assert_allclose(
                alpha, reference, rtol=0, atol=1e-10 * np.linalg.norm(reference)
            )


class TestEntryValidation:
    """Every contract the constraint blocks enforce, checked once at entry."""

    @pytest.fixture
    def problem(self, basis_128):
        rng = np.random.default_rng(0)
        return CsProblem(rng.standard_normal((16, 128)), basis_128)

    def test_negative_sigma(self, problem):
        with pytest.raises(ValueError, match="sigma"):
            solve_eq1(problem, np.zeros(16), -1.0)

    def test_wrong_measurement_length(self, problem):
        with pytest.raises(ValueError, match="16 measurements"):
            solve_eq1(problem, np.zeros(15), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurements(self, problem, bad):
        y = np.zeros(16)
        y[3] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_eq1(problem, y, 0.1)

    def test_bounds_of_wrong_shape(self, problem):
        with pytest.raises(ValueError, match="length 128"):
            solve_eq1(problem, np.zeros(16), 0.1, (np.zeros(5), np.ones(5)))

    def test_empty_box(self, problem):
        with pytest.raises(ValueError, match="empty box"):
            solve_eq1(problem, np.zeros(16), 0.1, (np.ones(128), np.zeros(128)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sigma(self, problem, bad):
        # A NaN radius made every ball test vacuous: the solve reported
        # converged=True far outside the ball.
        with pytest.raises(ValueError, match="sigma"):
            solve_eq1(problem, np.zeros(16), bad)

    @pytest.mark.parametrize("side", [0, 1], ids=["lower", "upper"])
    def test_nan_bound(self, problem, side):
        bounds = [-np.ones(128), np.ones(128)]
        bounds[side][7] = np.nan
        with pytest.raises(ValueError, match="bounds must be finite"):
            solve_eq1(problem, np.zeros(16), 0.1, tuple(bounds))

    def test_bsbl_non_finite_variance(self, problem):
        phi, basis, y = problem.phi, problem.basis, np.zeros(16)
        with pytest.raises(ValueError, match="noise_var"):
            solve_bsbl(phi, basis, y, np.nan, problem=problem)
        with pytest.raises(ValueError, match="quant_var"):
            solve_bsbl_dequant(
                phi, basis, y, 0.1, np.zeros(128), np.inf, problem=problem
            )
