"""Ablation: Huffman vs arithmetic coding of the low-res stream.

The paper picks Huffman for its trivial node-side implementation; the
design question is how many bits that choice leaves on the table relative
to (a) the empirical entropy floor and (b) an arithmetic coder.  Measured
per resolution on real tokenized streams.
"""

import numpy as np
from baselines import ArithmeticCodec, ArithmeticModel

from repro.coding.differential import difference_encode, empirical_entropy_bits
from repro.coding.huffman import HuffmanCodec
from repro.coding.runlength import tokenize_diffs
from repro.sensing.quantizers import requantize_codes
from repro.signals.database import load_record

RECORDS = ("100", "103", "200")
RESOLUTIONS = (4, 7, 10)


def _token_stream(bits):
    streams = []
    for name in RECORDS:
        record = load_record(name, duration_s=20.0)
        codes = requantize_codes(record.adu, 11, bits)
        _, diffs = difference_encode(codes)
        streams.append(tokenize_diffs(diffs))
    return streams


def _run():
    rows = []
    for bits in RESOLUTIONS:
        streams = _token_stream(bits)
        train, test = streams[:-1], streams[-1]
        freqs = {}
        for stream in train:
            for tok in stream:
                freqs[tok] = freqs.get(tok, 0) + 1
        # Restrict the test stream to trained tokens (escape handling is
        # identical for both coders, so it cancels out of the comparison).
        known = set(freqs)
        test = [t for t in test if t in known]
        n_samples_equiv = sum(
            t.length if hasattr(t, "length") else 1 for t in test
        )

        huff = HuffmanCodec.from_frequencies(freqs)
        arith = ArithmeticCodec(ArithmeticModel.from_frequencies(freqs))
        _, h_bits = huff.encode(test)
        _, a_bits = arith.encode(test)

        record = load_record(RECORDS[-1], duration_s=20.0)
        codes = requantize_codes(record.adu, 11, bits)
        entropy_per_diff = empirical_entropy_bits(codes)

        rows.append(
            {
                "bits": bits,
                "huffman": h_bits / n_samples_equiv,
                "arithmetic": a_bits / n_samples_equiv,
                "diff_entropy": entropy_per_diff,
            }
        )
    return rows


def test_ablation_entropy_coder(benchmark, table, emit_result):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    for r in rows:
        # Arithmetic coding never loses to Huffman (up to flush overhead).
        assert r["arithmetic"] <= r["huffman"] * 1.02 + 0.01
        # Both coders on the *tokenized* stream beat the raw per-difference
        # entropy at low resolutions (the run-length transform's gain).
        if r["bits"] <= 4:
            assert r["huffman"] < r["diff_entropy"] + 0.5

    emit_result(
        "ablation_entropy_coder",
        "Ablation — entropy coder on the tokenized low-res stream "
        "(bits per Nyquist sample)",
        table(
            ["resolution", "Huffman", "arithmetic", "per-diff entropy"],
            [
                (
                    r["bits"],
                    f"{r['huffman']:.3f}",
                    f"{r['arithmetic']:.3f}",
                    f"{r['diff_entropy']:.3f}",
                )
                for r in rows
            ],
        ),
    )
