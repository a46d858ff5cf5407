#!/usr/bin/env python
"""Designing the on-node Huffman codebook (paper Section III-B).

Walks the low-resolution-channel design loop a firmware engineer would
run before flashing a node:

1. pick candidate quantizer depths,
2. train an offline difference codebook per depth on a training corpus,
3. validate on *held-out* records (escape-rate, compression, losslessness),
4. read off the trade-off that led the paper to 7 bits.

Run:  python examples/codebook_designer.py
"""

import numpy as np

from repro.coding import ESCAPE, train_codebook
from repro.metrics import lowres_overhead
from repro.sensing import requantize_codes
from repro.signals import MITBIH_RECORD_NAMES, load_record

__all__ = ["main"]

TRAIN = MITBIH_RECORD_NAMES[:10]
HELD_OUT = ("219", "223", "233")
DEPTHS = (4, 5, 6, 7, 8, 9, 10)
WINDOW = 512


def escape_rate(book, codes) -> float:
    """Fraction of coded tokens that needed the escape path."""
    from repro.coding import tokenize_diffs
    from repro.coding.differential import difference_encode

    _, diffs = difference_encode(codes)
    tokens = tokenize_diffs(diffs)
    known = set(book.codec.symbols) - {ESCAPE}
    misses = sum(1 for t in tokens if t not in known)
    return misses / max(len(tokens), 1)


def main() -> None:
    train_records = [load_record(n, duration_s=30.0) for n in TRAIN]
    test_records = [load_record(n, duration_s=30.0) for n in HELD_OUT]

    print(f"training on {len(TRAIN)} records, validating on "
          f"{len(HELD_OUT)} held-out records\n")
    header = (f"{'bits':>4} {'entries':>8} {'flash B':>8} {'bits/smp':>9} "
              f"{'overhead %':>11} {'escape %':>9} {'lossless':>9}")
    print(header)
    print("-" * len(header))

    for bits in DEPTHS:
        streams = [
            requantize_codes(r.adu, r.header.resolution_bits, bits)
            for r in train_records
        ]
        book = train_codebook(streams, bits)

        fractions, escapes, lossless = [], [], True
        for record in test_records:
            codes = requantize_codes(
                record.adu, record.header.resolution_bits, bits
            )
            for k in range(codes.size // WINDOW):
                window = codes[k * WINDOW : (k + 1) * WINDOW]
                payload, nbits = book.encode_window(window)
                decoded = book.decode_window(payload, WINDOW, nbits)
                lossless &= bool(np.array_equal(decoded, window))
                fractions.append(nbits / (WINDOW * bits))
            escapes.append(escape_rate(book, codes))

        frac = float(np.mean(fractions))
        print(f"{bits:>4} {book.n_entries:>8} {book.storage_bytes():>8} "
              f"{frac * bits:>9.2f} {lowres_overhead(min(frac, 1.0), bits):>11.2f} "
              f"{100 * float(np.mean(escapes)):>9.2f} {str(lossless):>9}")

    print(
        "\nReading the table like the paper did: overhead (the cost added\n"
        "to the CS channel's CR) grows with depth, while the reconstruction\n"
        "bound d = 2^(11-bits) shrinks.  7 bits buys a 16-code bound for a\n"
        "single-digit overhead and a codebook of well under 100 bytes —\n"
        "the operating point Section IV adopts."
    )


if __name__ == "__main__":
    main()
