#!/usr/bin/env python
"""Holter-monitor scenario: long-recording compression budget planning.

The paper's motivating workload (Section I): a wireless body sensor node
streaming ambulatory ECG for hours on a coin cell, where every transmitted
bit costs energy.  This example sizes a 24-hour Holter recording under
three front-end designs and reports, per design:

* total bits on air (radio energy is roughly proportional),
* reconstruction quality on a sampled subset of windows,
* how the hybrid design's low-res overhead pays for itself in solver-side
  robustness at aggressive compression.

Run:  python examples/holter_compression.py
"""

import numpy as np

from repro.core import FrontEndConfig, default_codebook, run_record
from repro.recovery import PdhgSettings
from repro.signals import load_record

__all__ = ["main"]

HOURS = 24.0
FS = 360.0
SAMPLE_BITS = 12  # the paper's accounting resolution


def on_air_bits_per_window(outcome) -> float:
    return float(np.mean([w.budget.total_bits for w in outcome.windows]))


def main() -> None:
    # Evaluate on a representative minute, extrapolate to 24 h.
    record = load_record("119", duration_s=60.0)
    windows_per_day = int(HOURS * 3600 * FS) // 512
    raw_bits_day = windows_per_day * 512 * SAMPLE_BITS

    designs = {
        # Normal CS at the conservative CR where it still has "good"
        # quality in Fig. 7 (~50%).
        "normal CS @ 50% CR": dict(
            method="normal",
            config=FrontEndConfig(
                n_measurements=256, solver=PdhgSettings(max_iter=2500, tol=2e-4)
            ),
        ),
        # Hybrid at the paper's showcase operating point (81% CS CR).
        "hybrid @ 81% CR": dict(
            method="hybrid",
            config=FrontEndConfig(
                n_measurements=96, solver=PdhgSettings(max_iter=2500, tol=2e-4)
            ),
        ),
        # Hybrid pushed into the regime where normal CS has collapsed.
        "hybrid @ 94% CR": dict(
            method="hybrid",
            config=FrontEndConfig(
                n_measurements=32, solver=PdhgSettings(max_iter=2500, tol=2e-4)
            ),
        ),
    }

    print(f"Holter planning: {HOURS:.0f} h at {FS:.0f} Hz "
          f"= {raw_bits_day / 8 / 1e6:.1f} MB/day uncompressed\n")
    header = (f"{'design':<22} {'SNR dB':>7} {'PRD %':>7} {'net CR %':>9} "
              f"{'MB/day':>7} {'radio x':>8}")
    print(header)
    print("-" * len(header))

    for name, spec in designs.items():
        config = spec["config"]
        codebook = (
            default_codebook(config.lowres_bits, config.acquisition_bits)
            if spec["method"] == "hybrid"
            else None
        )
        outcome = run_record(
            record, config, method=spec["method"], codebook=codebook,
            max_windows=6,
        )
        bits_day = on_air_bits_per_window(outcome) * windows_per_day
        print(f"{name:<22} {outcome.mean_snr_db:>7.2f} {outcome.mean_prd:>7.2f} "
              f"{outcome.net_cr_percent:>9.2f} {bits_day / 8 / 1e6:>7.1f} "
              f"{raw_bits_day / bits_day:>7.1f}x")

    print(
        "\nReading: the hybrid design at 81% CS CR transmits ~4x fewer bits\n"
        "than uncompressed while holding PRD in the 'good' band, and it can\n"
        "be pushed past 90% CS CR — where plain CS recovery has already\n"
        "collapsed (Fig. 7) — at a graceful quality cost."
    )


if __name__ == "__main__":
    main()
