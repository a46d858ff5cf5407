"""Tests of the shared front-end configuration."""

from dataclasses import fields

import pytest

from repro.core.config import DEFAULT_CONFIG, FrontEndConfig
from repro.recovery.bsbl import BsblSettings


class TestDefaults:
    def test_paper_operating_point(self):
        assert DEFAULT_CONFIG.window_len == 512
        assert DEFAULT_CONFIG.lowres_bits == 7
        assert DEFAULT_CONFIG.acquisition_bits == 11
        assert DEFAULT_CONFIG.measurement_bits == 12
        assert DEFAULT_CONFIG.basis_spec == "db4"

    def test_derived_quantities(self):
        cfg = FrontEndConfig(window_len=512, n_measurements=96)
        assert cfg.cs_cr_percent == pytest.approx(81.25)
        assert cfg.delta == pytest.approx(96 / 512)
        assert cfg.lowres_step_codes == 16  # 2^(11-7)


class TestValidation:
    def test_m_bounds(self):
        with pytest.raises(ValueError):
            FrontEndConfig(window_len=512, n_measurements=0)
        with pytest.raises(ValueError):
            FrontEndConfig(window_len=512, n_measurements=513)

    def test_lowres_bounds(self):
        with pytest.raises(ValueError):
            FrontEndConfig(lowres_bits=0)
        with pytest.raises(ValueError):
            FrontEndConfig(lowres_bits=12, acquisition_bits=11)

    def test_negative_safety_rejected(self):
        with pytest.raises(ValueError):
            FrontEndConfig(sigma_safety=-1.0)


class TestDerivedConfigs:
    def test_with_measurements(self):
        cfg = DEFAULT_CONFIG.with_measurements(64)
        assert cfg.n_measurements == 64
        assert cfg.window_len == DEFAULT_CONFIG.window_len

    def test_with_lowres_bits(self):
        cfg = DEFAULT_CONFIG.with_lowres_bits(5)
        assert cfg.lowres_bits == 5

    def test_for_cr_roundtrip(self):
        for cr in (50.0, 75.0, 94.0):
            cfg = DEFAULT_CONFIG.for_cr(cr)
            assert cfg.cs_cr_percent == pytest.approx(cr, abs=0.2)

    def test_for_cr_100_keeps_one_measurement(self):
        assert DEFAULT_CONFIG.for_cr(100.0).n_measurements == 1

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.window_len = 17  # type: ignore[misc]


class TestReceiverSettings:
    def test_default_config_carries_bsbl_settings(self):
        assert FrontEndConfig().bsbl == BsblSettings()

    def test_fields(self):
        """Only the knobs a production path reads."""
        assert [f.name for f in fields(FrontEndConfig)] == [
            "window_len",
            "n_measurements",
            "lowres_bits",
            "acquisition_bits",
            "measurement_bits",
            "basis_spec",
            "sensing",
            "solver",
            "sigma_safety",
            "bsbl",
        ]

    def test_hashable(self):
        """Configs stay hashable (the link memo keys on them)."""
        assert hash(FrontEndConfig()) == hash(FrontEndConfig())
