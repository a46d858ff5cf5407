#!/usr/bin/env python
"""An adaptive, link-hardened sensor node — the extensions in one pipeline.

Combines three library extensions on top of the paper's hybrid design:

1. **activity-adaptive channel allocation** — the low-res stream rates
   each window's complexity and quiet windows power down RMPI channels;
2. **lossy-link hardening** — packets cross a bit-error/erasure channel;
   the receiver CRC-gates the hybrid decode, falls back to CS-only on
   corruption and conceals erasures;
3. **receiver-side preprocessing + QRS scoring** — the cleaned
   reconstruction is scored by beat-detection fidelity, the clinical
   bottom line.

Run:  python examples/adaptive_node.py
"""

import numpy as np

from repro.core import FrontEndConfig, default_codebook
from repro.core.adaptive import AdaptiveFrontEnd, AdaptiveReceiver
from repro.core.channel import LossyLink, payload_crc
from repro.metrics import reconstruction_fidelity, snr_db
from repro.recovery import PdhgSettings
from repro.signals import clean, load_record

__all__ = ["main"]

CONFIG = FrontEndConfig(
    window_len=256,
    n_measurements=96,  # bank size (m_max)
    solver=PdhgSettings(max_iter=1500, tol=2e-4),
)
BER = 3e-5
ERASURES = 0.08


def main() -> None:
    codebook = default_codebook(CONFIG.lowres_bits, CONFIG.acquisition_bits)
    node = AdaptiveFrontEnd(CONFIG, codebook, m_min=24)
    receiver = AdaptiveReceiver(CONFIG, codebook)
    link = LossyLink(bit_error_rate=BER, packet_erasure_rate=ERASURES, seed=3)

    record = load_record("208", duration_s=30.0)  # the PVC-rich record
    fs = record.header.fs_hz
    windows = list(record.windows(CONFIG.window_len))[:12]

    print(f"adaptive node on record {record.name}: bank m_max = "
          f"{CONFIG.n_measurements}, link BER {BER:g}, "
          f"{ERASURES:.0%} erasures\n")
    print(f"{'win':>4} {'m':>4} {'bits':>6} {'status':>10} {'SNR dB':>8}")

    originals, recons = [], []
    total_bits = fixed_bits = 0
    for idx, window in enumerate(windows):
        packet = node.process_window(window, idx)
        crc = payload_crc(packet)
        total_bits += packet.total_bits
        fixed_bits += (
            packet.total_bits
            - packet.cs_bits
            + CONFIG.n_measurements * CONFIG.measurement_bits
        )

        arrived = link.transmit(packet)
        ref = window.astype(float) - 1024
        if arrived is None:
            status = "erased"
            recon_codes = recons[-1] + 1024 if recons else np.full(ref.size, 1024.0)
        elif payload_crc(arrived) != crc:
            # Corruption detected: drop the (possibly desynchronized)
            # low-res payload and decode from the CS measurements alone.
            status = "corrupted"
            from repro.core import WindowPacket

            stripped = WindowPacket(
                window_index=arrived.window_index,
                n=arrived.n,
                measurement_codes=arrived.measurement_codes,
                measurement_bits=arrived.measurement_bits,
                lowres_payload=b"",
                lowres_bit_length=0,
            )
            recon_codes = receiver.reconstruct(stripped).x_codes
        else:
            status = "ok"
            recon_codes = receiver.reconstruct(arrived).x_codes

        recon = recon_codes - 1024
        originals.append(ref)
        recons.append(recon)
        print(f"{idx:>4} {packet.m:>4} {packet.total_bits:>6} {status:>10} "
              f"{snr_db(ref, recon):>8.2f}")

    original = np.concatenate(originals)
    reconstructed = np.concatenate(recons)
    cleaned = clean(reconstructed, fs)
    cleaned_original = clean(original, fs)
    score = reconstruction_fidelity(cleaned_original, cleaned, fs)

    print(f"\nstream SNR: {snr_db(original, reconstructed):.2f} dB")
    print(f"bits vs fixed-m node: {total_bits} vs {fixed_bits} "
          f"({100 * (1 - total_bits / fixed_bits):.1f}% saved)")
    print(f"beat-detection fidelity after cleaning: "
          f"Se {score.sensitivity:.3f}, +P {score.positive_predictivity:.3f}, "
          f"F1 {score.f1:.3f}")


if __name__ == "__main__":
    main()
