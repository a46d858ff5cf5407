#!/usr/bin/env python
"""Behavioural RMPI simulation: how circuit non-idealities hit recovery.

The paper's analog CS path is an RMPI channel bank (Fig. 3).  This example
acquires the same ECG window through progressively less ideal banks —
integrator leakage (finite OTA gain), amplifier input noise, channel gain
mismatch, measurement-ADC quantization — and recovers with the *ideal*
discrete model, measuring how far the hardware can drift before recovery
quality suffers.  The hybrid design's bound constraint is exactly what
keeps it robust here.

Run:  python examples/rmpi_hardware_sim.py
"""

import numpy as np

from repro.metrics import snr_db
from repro.recovery import PdhgSettings, solve_bpdn, solve_hybrid
from repro.sensing import RmpiBank, RmpiNonidealities, lowres_bounds, requantize_codes
from repro.signals import load_record
from repro.wavelets import WaveletBasis

__all__ = ["main"]

N, M = 512, 96
SETTINGS = PdhgSettings(max_iter=2500, tol=2e-4)

SCENARIOS = {
    "ideal bank": RmpiNonidealities(),
    "leaky integrator (1e-4/chip)": RmpiNonidealities(
        integrator_leak_per_chip=1e-4
    ),
    "amplifier noise (0.5 LSB rms)": RmpiNonidealities(input_noise_rms=0.25),
    "gain mismatch (1%)": RmpiNonidealities(gain_mismatch_sigma=0.01),
    "all of the above": RmpiNonidealities(
        integrator_leak_per_chip=1e-4,
        input_noise_rms=0.25,
        gain_mismatch_sigma=0.01,
    ),
}


def main() -> None:
    record = load_record("103", duration_s=10.0)
    window = next(record.windows(N))
    x = window.astype(float) - 1024

    basis = WaveletBasis(N, "db4")
    lowres = requantize_codes(window, 11, 7)
    lower, upper = lowres_bounds(lowres, 11, 7)
    lower, upper = lower - 1024, upper - 1024

    print(f"RMPI bank: m = {M} channels, n = {N} chips/window, "
          "12-bit measurement ADC\n")
    header = (f"{'scenario':<30} {'model err':>10} {'sigma':>8} "
              f"{'hybrid dB':>10} {'normal dB':>10}")
    print(header)
    print("-" * len(header))

    for name, nid in SCENARIOS.items():
        bank = RmpiBank(
            m=M, n=N, seed=2015, nonidealities=nid,
            adc_bits=12, signal_peak=1024.0,
        )
        phi = bank.equivalent_matrix()
        y = bank.measure(x)
        model_err = float(np.linalg.norm(y - phi @ x))
        sigma = bank.measurement_noise_bound(x_peak=float(np.max(np.abs(x))))

        hybrid = solve_hybrid(
            phi, basis, y, sigma, lower, upper, settings=SETTINGS
        )
        normal = solve_bpdn(phi, basis, y, sigma, settings=SETTINGS)
        print(f"{name:<30} {model_err:>10.2f} {sigma:>8.2f} "
              f"{snr_db(x, hybrid.x):>10.2f} {snr_db(x, normal.x):>10.2f}")

    print(
        "\nThe hybrid recovery degrades gracefully as the bank departs from\n"
        "the ideal model: the per-sample bounds cap the damage any\n"
        "measurement-domain error can do, while normal CS passes the full\n"
        "model mismatch into the reconstruction."
    )


if __name__ == "__main__":
    main()
