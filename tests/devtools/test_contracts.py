"""Runtime array-contract assertions and the array_contract decorator."""

import numpy as np
import pytest

from repro.devtools.contracts import (
    ContractError,
    array_contract,
    check_dtype,
    check_finite,
    check_shape,
)


class TestCheckShape:
    def test_exact_match_passes_through(self):
        x = np.zeros((3, 4))
        assert check_shape(x, (3, 4)) is x

    def test_wildcard(self):
        check_shape(np.zeros(7), (None,))

    def test_wrong_ndim(self):
        with pytest.raises(ContractError, match="2-D"):
            check_shape(np.zeros(3), (3, 1), name="y")

    def test_wrong_size_names_argument(self):
        with pytest.raises(ContractError, match="codes"):
            check_shape(np.zeros(5), (4,), name="codes")

    def test_symbols_bind_consistently(self):
        dims = {}
        check_shape(np.zeros((2, 5)), ("m", "n"), dims=dims)
        check_shape(np.zeros(5), ("n",), dims=dims)
        with pytest.raises(ContractError, match="already bound"):
            check_shape(np.zeros(6), ("n",), dims=dims)

    def test_symbol_without_dims_is_wildcard(self):
        check_shape(np.zeros(9), ("n",))

    def test_coerces_lists(self):
        out = check_shape([1, 2, 3], (3,))
        assert isinstance(out, np.ndarray)

    def test_is_both_value_and_type_error(self):
        with pytest.raises(ValueError):
            check_shape(np.zeros(5), (4,))
        with pytest.raises(TypeError):
            check_shape(np.zeros(5), (4,))


class TestCheckDtype:
    def test_abstract_kinds(self):
        check_dtype(np.zeros(3, dtype=np.int32), "integer")
        check_dtype(np.zeros(3, dtype=np.float32), "floating")
        check_dtype(np.zeros(3), ("integer", "floating"))

    def test_concrete_dtype(self):
        check_dtype(np.zeros(3, dtype=np.int64), np.int64)

    def test_mismatch(self):
        with pytest.raises(ContractError, match="expected dtype integer"):
            check_dtype(np.zeros(3), "integer", name="codes")


class TestCheckFinite:
    def test_finite_passes(self):
        check_finite(np.arange(4.0))

    def test_integer_trivially_finite(self):
        check_finite(np.arange(4))

    def test_nan_rejected(self):
        with pytest.raises(ContractError, match="non-finite"):
            check_finite(np.array([1.0, np.nan, np.inf]), name="y")


class TestArrayContractDecorator:
    def test_valid_call_coerces_to_ndarray(self):
        @array_contract(x=dict(shape=("n",), dtype="floating", finite=True))
        def total(x):
            assert isinstance(x, np.ndarray)
            return float(np.sum(x))

        assert total([1.0, 2.0]) == 3.0

    def test_shape_symbols_shared_across_parameters(self):
        @array_contract(
            phi=dict(shape=("m", "n")), x=dict(shape=("n",))
        )
        def measure(phi, x):
            return phi @ x

        measure(np.zeros((2, 4)), np.zeros(4))
        with pytest.raises(ContractError, match="already bound"):
            measure(np.zeros((2, 4)), np.zeros(3))

    def test_ndim_spec(self):
        @array_contract(x=dict(ndim=1))
        def f(x):
            return x

        f(np.zeros(3))
        with pytest.raises(ContractError, match="1-D"):
            f(np.zeros((2, 2)))

    def test_none_argument_skipped(self):
        @array_contract(x=dict(shape=(3,)))
        def f(x=None):
            return x

        assert f() is None

    def test_unknown_parameter_rejected_at_decoration(self):
        with pytest.raises(TypeError, match="unknown"):
            @array_contract(nope=dict(ndim=1))
            def f(x):
                return x

    def test_finite_spec(self):
        @array_contract(x=dict(finite=True))
        def f(x):
            return x

        with pytest.raises(ContractError):
            f(np.array([np.nan]))


class TestEntryPointsUseContracts:
    """The paper pipeline's public APIs fail fast with named arguments."""

    def test_rmpi_measure_shape(self):
        from repro.sensing.rmpi import RmpiBank

        bank = RmpiBank(4, 16, seed=7)
        with pytest.raises(ValueError, match="x"):
            bank.measure(np.zeros(15))

    def test_rmpi_measure_rejects_nan(self):
        from repro.sensing.rmpi import RmpiBank

        bank = RmpiBank(4, 16, seed=7)
        bad = np.zeros(16)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            bank.measure(bad)

    def test_problem_forward_adjoint_shapes(self):
        from repro.recovery.problem import CsProblem
        from repro.wavelets.operators import make_basis

        prob = CsProblem(np.ones((3, 8)), make_basis(8, "haar"))
        with pytest.raises(ValueError, match="alpha"):
            prob.forward(np.zeros(7))
        with pytest.raises(ValueError, match="z"):
            prob.adjoint(np.zeros(8))
        with pytest.raises(ValueError, match="non-finite"):
            CsProblem(np.array([[np.nan] * 8] * 3), make_basis(8, "haar"))

    def test_frontend_window_contract(self):
        from repro.core.config import FrontEndConfig
        from repro.core.frontend import NormalCsFrontEnd

        fe = NormalCsFrontEnd(FrontEndConfig())
        with pytest.raises(ValueError, match="codes"):
            fe.process_window(np.zeros(3, dtype=np.int64))
        with pytest.raises(TypeError, match="codes"):
            fe.process_window(np.zeros(fe.config.window_len))
