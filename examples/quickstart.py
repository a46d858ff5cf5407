#!/usr/bin/env python
"""Quickstart: compress and reconstruct one ECG record with hybrid CS.

The 60-second tour of the library's public API:

1. load a synthetic MIT-BIH-like record,
2. build the paper's hybrid front-end (CS path + 7-bit parallel path),
3. transmit packets, reconstruct at the receiver,
4. report the paper's metrics (CR, PRD, SNR).

Run:  python examples/quickstart.py
"""

from repro.core import (
    DEFAULT_CONFIG,
    HybridFrontEnd,
    HybridReceiver,
    default_codebook,
)
from repro.metrics import prd, snr_db
from repro.signals import load_record

__all__ = ["main"]


def main() -> None:
    # --- 1. data -----------------------------------------------------
    record = load_record("100", duration_s=20.0)
    print(f"record {record.name}: {record.duration_s:.0f} s at "
          f"{record.header.fs_hz:.0f} Hz, {record.header.resolution_bits}-bit")

    # --- 2. the hybrid link ------------------------------------------
    # DEFAULT_CONFIG is the paper's operating point: 512-sample windows,
    # m = 96 measurements (81% CS-channel CR), 7-bit low-res channel,
    # db4 wavelet basis. Node and receiver share it (plus the offline
    # Huffman codebook), exactly like deployed hardware would.
    config = DEFAULT_CONFIG
    codebook = default_codebook(config.lowres_bits, config.acquisition_bits)
    node = HybridFrontEnd(config, codebook)
    receiver = HybridReceiver(config, codebook)
    print(f"config: n={config.window_len}, m={config.n_measurements} "
          f"({config.cs_cr_percent:.1f}% CS CR), "
          f"{config.lowres_bits}-bit parallel channel")
    print(f"on-node codebook: {codebook.n_entries} entries, "
          f"{codebook.storage_bytes()} bytes of flash")

    # --- 3. transmit & reconstruct ------------------------------------
    center = 1 << (config.acquisition_bits - 1)
    print(f"\n{'win':>4} {'bits':>6} {'net CR %':>9} {'PRD %':>7} {'SNR dB':>7}")
    for idx, window in enumerate(record.windows(config.window_len)):
        if idx >= 5:
            break
        packet = node.process_window(window, idx)
        wire = packet.to_bytes()          # what the radio would send
        recon = receiver.reconstruct(packet)

        reference = window.astype(float) - center
        reconstructed = recon.x_centered(center)
        budget = packet.budget()
        print(f"{idx:>4} {len(wire) * 8:>6} {budget.net_cr_percent:>9.2f} "
              f"{prd(reference, reconstructed):>7.2f} "
              f"{snr_db(reference, reconstructed):>7.2f}")

    print("\nEach window was compressed to <25% of its original bits while "
          "keeping clinical-grade quality (PRD < 9%).")


if __name__ == "__main__":
    main()
