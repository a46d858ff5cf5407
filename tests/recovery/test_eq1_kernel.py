"""Differential tests of the fused Eq. 1 kernel against the generic engine.

:func:`repro.recovery.eq1.solve_eq1` is the production decode of both
the hybrid (Eq. 1) and the normal-CS programs.  The oracle is
:func:`repro.recovery.pdhg.solve_l1_constrained` built from
:func:`~repro.recovery.bpdn.ball_block` and
:func:`~repro.recovery.hybrid.box_block`: the same iteration, step sizes,
cold start and stopping rule, so both must agree to rounding and stop at
the same iteration.  Inputs are the first windows of the ``SMALL_SCALE``
records at the paper's operating point (n = 512) and the Fig. 7 CRs.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.codebooks import CodebookKey
from repro.core.config import DEFAULT_CONFIG
from repro.experiments.runner import SMALL_SCALE
from repro.recovery.bpdn import ball_block
from repro.recovery.bsbl import solve_bsbl, solve_bsbl_dequant
from repro.recovery.eq1 import solve_eq1
from repro.recovery.hybrid import box_block
from repro.recovery.pdhg import solve_l1_constrained
from repro.recovery.problem import CsProblem
from repro.runtime import stages
from repro.runtime.task import CodebookSpec
from repro.sensing.quantizers import lowres_bounds
from repro.signals.database import load_record

CRS = (50.0, 75.0, 81.0)
ALPHA_ATOL = 1e-8
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
    for key in ("tau", "sigma", "lipschitz_sq"):
        assert kernel.info[key] == oracle.info[key]


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
        assert kernel.residual_norm == pytest.approx(
            float(np.linalg.norm(problem.a @ kernel.alpha - y)), abs=1e-12
        )


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
