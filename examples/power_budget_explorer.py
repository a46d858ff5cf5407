#!/usr/bin/env python
"""Power-budget exploration for an RMPI-based front-end (paper Section VI).

A hardware designer's view of the paper: given the 90 nm block models
(Eqs. 4, 5, 9), how does the power budget split across blocks, how does it
scale with the channel count, and what battery life does each design buy?

Reproduces the Fig. 11 reasoning interactively:

* block breakdown for normal RMPI (m = 240) vs hybrid (m = 96) at 360 Hz,
* the amplifier-dominance observation,
* the 2.5x / 11x operating points,
* projected lifetime on a 225 mAh coin cell (front-end only).

Run:  python examples/power_budget_explorer.py
"""

from repro.power import (
    HybridArchitecture,
    PAPER_OPERATING_POINTS,
    RmpiArchitecture,
    power_gain,
)

__all__ = ["main"]

FS_HZ = 360.0
COIN_CELL_MAH = 225.0
VDD = 1.0


def battery_days(total_w: float) -> float:
    energy_j = COIN_CELL_MAH * 1e-3 * 3600.0 * VDD
    return energy_j / total_w / 86400.0


def show_breakdown(name: str, breakdown) -> None:
    uw = breakdown.as_microwatts()
    print(f"\n{name}")
    for key in ("P[adc]", "P[Int]", "P[amp]", "P[Total]"):
        share = uw[key] / uw["P[Total]"] * 100.0
        print(f"  {key:<9} {uw[key]:>12.4f} uW   ({share:5.1f}%)")
    print(f"  dominant block: {breakdown.dominant_block()}")


def main() -> None:
    normal = RmpiArchitecture(m=240, n=512)
    hybrid = HybridArchitecture(cs=RmpiArchitecture(m=96, n=512), lowres_bits=7)

    print(f"ECG front-end power at fs = {FS_HZ:.0f} Hz "
          "(90 nm models of Chen et al., as used by the paper)")
    show_breakdown("normal RMPI, m = 240 (SNR = 20 dB sizing):",
                   normal.breakdown(FS_HZ))
    show_breakdown("hybrid CS, m = 96 + 7-bit low-res channel:",
                   hybrid.breakdown(FS_HZ))
    lowres_share = hybrid.lowres_fraction(FS_HZ)
    print(f"\nlow-res channel share of hybrid total: {lowres_share:.2e} "
          "(the paper's 'negligible' claim, quantified)")

    print("\nFixed-quality operating points (paper Section VI):")
    print(f"{'target':>8} {'m normal':>9} {'m hybrid':>9} "
          f"{'model gain':>11} {'paper':>6}")
    for pt in PAPER_OPERATING_POINTS:
        gain = power_gain(pt.m_normal, pt.m_hybrid, fs_hz=FS_HZ)
        print(f"{pt.target_snr_db:>6.0f}dB {pt.m_normal:>9} {pt.m_hybrid:>9} "
              f"{gain:>10.2f}x {pt.paper_gain:>5.1f}x")

    print(f"\nProjected front-end-only lifetime on a {COIN_CELL_MAH:.0f} mAh "
          "coin cell:")
    for name, arch in (
        ("normal RMPI m=240", normal),
        ("hybrid m=96", hybrid),
        ("hybrid m=16 (17 dB point)",
         HybridArchitecture(cs=RmpiArchitecture(m=16, n=512), lowres_bits=7)),
    ):
        days = battery_days(arch.total_w(FS_HZ))
        print(f"  {name:<28} {days:>10.1f} days")

    print("\nScaling with sampling frequency (the HF motivation in the "
          "paper's conclusion):")
    print(f"{'fs':>10} {'normal uW':>12} {'hybrid uW':>12} {'gain':>6}")
    for fs in (360.0, 3.6e3, 3.6e5, 3.6e7):
        pn = normal.total_w(fs) * 1e6
        ph = hybrid.total_w(fs) * 1e6
        print(f"{fs:>10.0f} {pn:>12.4g} {ph:>12.4g} {pn / ph:>5.2f}x")


if __name__ == "__main__":
    main()
