"""The recovery-method registry: specs, dispatch, and error reporting."""

import inspect

import numpy as np
import pytest

import repro.recovery
from repro.core.config import FrontEndConfig
from repro.core.receiver import HybridReceiver
from repro.recovery.methods import (
    METHODS,
    MethodSpec,
    method_names,
    resolve_method,
)
from repro.runtime.task import CodebookSpec, WindowTask


class TestRegistry:
    def test_method_names_sorted_and_complete(self):
        assert method_names() == ("bsbl", "bsbl-dequant", "hybrid", "normal")

    def test_specs_are_self_consistent(self):
        for name, spec in METHODS.items():
            assert isinstance(spec, MethodSpec)
            assert spec.name == name
            assert spec.description

    def test_lowres_flags(self):
        """Which methods consume the low-resolution channel decides both
        the transmitter (hybrid vs CS-only front-end) and the decoder."""
        assert resolve_method("hybrid").uses_lowres
        assert resolve_method("bsbl-dequant").uses_lowres
        assert not resolve_method("normal").uses_lowres
        assert not resolve_method("bsbl").uses_lowres

    def test_stripped_siblings(self):
        """A payload-less packet degrades a low-res method to a method
        that reads measurements only; the others need no sibling."""
        for spec in METHODS.values():
            assert (spec.stripped is not None) == spec.uses_lowres
        assert resolve_method("hybrid").stripped == "normal"
        assert resolve_method("bsbl-dequant").stripped == "bsbl"

    def test_no_warm_start_parameter(self):
        """Every decode starts cold: only the generic PDHG engine, the
        fused kernel's test oracle, still takes a starting point."""
        warm = [
            name
            for name in repro.recovery.__all__
            if callable(obj := getattr(repro.recovery, name))
            and "alpha0" in inspect.signature(obj).parameters
        ]
        assert warm == ["solve_l1_constrained"]


class TestDispatchErrors:
    def test_unknown_method_lists_registered_names(self):
        """The error a typo produces must name every registered method —
        the difference between a dead end and a one-glance fix."""
        with pytest.raises(ValueError) as excinfo:
            resolve_method("bsbl-dequantize")
        message = str(excinfo.value)
        assert "bsbl-dequantize" in message
        for name in method_names():
            assert name in message

    def test_window_task_propagates_registry_error(self):
        config = FrontEndConfig(window_len=128, n_measurements=48)
        with pytest.raises(ValueError, match="registered methods"):
            WindowTask(
                record_name="100",
                method="bbsl",
                window_index=0,
                codes=np.zeros(128, dtype=np.int64),
                config=config,
                codebook=CodebookSpec.none(),
                seed=0,
            )

    def test_recovery_task_propagates_registry_error(self):
        from repro.core.packets import WindowPacket
        from repro.stream.session import RecoveryTask

        config = FrontEndConfig(window_len=128, n_measurements=48)
        packet = WindowPacket(
            window_index=0,
            n=128,
            measurement_codes=np.zeros(48, dtype=np.int64),
            measurement_bits=config.acquisition_bits,
            lowres_payload=b"",
            lowres_bit_length=0,
        )
        with pytest.raises(ValueError, match="registered methods"):
            RecoveryTask(
                patient_id="p0",
                window_index=0,
                packet=packet,
                crc=None,
                config=config,
                method="eq1",  # a solver key, not a method name
                codebook=CodebookSpec.none(),
            )

    def test_receiver_rejects_unknown_method(self):
        config = FrontEndConfig(window_len=128, n_measurements=48)
        with pytest.raises(ValueError, match="registered methods"):
            HybridReceiver(config, method="bayes")
