#!/usr/bin/env python
"""High-frequency A2I: the CS path as a *super-resolution* channel.

The paper's conclusion motivates a second application: at GHz-class rates
flash ADCs cap out around 8 effective bits, so a hybrid front-end can run
a *low-resolution* converter at the full rate and use a slow RMPI bank as
a super-resolution path that restores the lost bits — the same Eq. 1, with
the roles reversed in emphasis.

This example builds that scenario at laptop scale: a sparse multi-tone RF
burst "sampled" by an 6-bit coarse converter plus an m-channel RMPI, then
reconstructed (a) from the coarse samples alone, (b) by normal CS, and
(c) by hybrid CS.  The hybrid path recovers most of the resolution the
coarse ADC threw away.

Run:  python examples/hf_superresolution.py
"""

import numpy as np

from repro.metrics import snr_db
from repro.recovery import PdhgSettings, solve_bpdn, solve_hybrid
from repro.sensing import RmpiBank, UniformQuantizer
from repro.wavelets import DctBasis

__all__ = ["main"]

N = 1024          # samples per processing window
M = 64            # RMPI channels (~6% of Nyquist: CS alone is hopeless)
COARSE_BITS = 6   # the "fast but shallow" flash ADC
TONES = 24        # spectral sparsity of the burst
SETTINGS = PdhgSettings(max_iter=4000, tol=1e-5)


def make_burst(rng: np.random.Generator) -> np.ndarray:
    """A sparse multi-tone burst of shape ``(N,)``, unit peak (normalized
    units: one 'GHz' window scales to any carrier — the math is rate-free)."""
    basis = DctBasis(N)
    alpha = np.zeros(N)
    bins = rng.choice(np.arange(16, N // 2), size=TONES, replace=False)
    alpha[bins] = rng.uniform(0.4, 1.0, TONES) * np.sign(rng.standard_normal(TONES))
    x = basis.synthesize(alpha)
    return x / np.max(np.abs(x))


def main() -> None:
    rng = np.random.default_rng(7)
    x = make_burst(rng)
    basis = DctBasis(N)

    # The coarse path: full-rate, few bits.
    coarse = UniformQuantizer(bits=COARSE_BITS, full_scale=1.0)
    x_coarse = coarse.quantize_reconstruct(x)
    lower = x_coarse - coarse.step / 2
    upper = x_coarse + coarse.step / 2

    # The super-resolution path: an RMPI bank at m/N of the Nyquist rate,
    # digitized finely (its converters run slow, so bits are cheap there).
    bank = RmpiBank(m=M, n=N, seed=42, adc_bits=12, signal_peak=1.0)
    y = bank.measure(x)
    phi = bank.equivalent_matrix()
    sigma = max(bank.measurement_noise_bound(1.0), 1e-6)

    results = {
        f"coarse ADC alone ({COARSE_BITS}-bit)": x_coarse,
        f"normal CS (m={M})": solve_bpdn(
            phi, basis, y, sigma, settings=SETTINGS
        ).x,
        f"hybrid CS (m={M} + coarse)": solve_hybrid(
            phi, basis, y, sigma, lower, upper, settings=SETTINGS
        ).x,
    }

    print(f"sparse burst: {TONES} tones in {N} samples | "
          f"RMPI channels: {M} ({M / N:.0%} of Nyquist)\n")
    print(f"{'method':<32} {'SNR dB':>8} {'ENOB-ish':>9}")
    print("-" * 51)
    for name, xr in results.items():
        s = snr_db(x, xr)
        enob = (s - 1.76) / 6.02  # the classic SNR-to-bits rule
        print(f"{name:<32} {s:>8.2f} {enob:>9.2f}")

    print(
        "\nWith only ~6% of Nyquist-rate channels, plain CS cannot even\n"
        "locate the tones — but fused with the coarse converter's bounds\n"
        "(Eq. 1) the same measurements add several effective bits beyond\n"
        f"the {COARSE_BITS}-bit flash ADC: the conclusion's proposed use of this\n"
        "architecture for HF analog-to-information conversion."
    )


if __name__ == "__main__":
    main()
