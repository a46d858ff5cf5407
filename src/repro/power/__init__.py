"""Analytical power models (paper §VI): blocks, architectures, comparisons."""

from repro.power.comparison import (
    OperatingPoint,
    PAPER_OPERATING_POINTS,
    measurements_for_target_snr,
    power_gain,
)
from repro.power.models import (
    BOLTZMANN_J_PER_K,
    DEFAULT_TEMPERATURE_K,
    ELECTRON_CHARGE_C,
    PowerBreakdown,
    adc_power,
    amplifier_power,
    integrator_power,
    noise_efficiency_factor,
    thermal_voltage,
)
from repro.power.rmpi_power import (
    HybridArchitecture,
    RmpiArchitecture,
    sweep_frequencies,
)

__all__ = [
    "BOLTZMANN_J_PER_K",
    "DEFAULT_TEMPERATURE_K",
    "ELECTRON_CHARGE_C",
    "HybridArchitecture",
    "OperatingPoint",
    "PAPER_OPERATING_POINTS",
    "PowerBreakdown",
    "RmpiArchitecture",
    "adc_power",
    "amplifier_power",
    "integrator_power",
    "measurements_for_target_snr",
    "noise_efficiency_factor",
    "power_gain",
    "sweep_frequencies",
    "thermal_voltage",
]
