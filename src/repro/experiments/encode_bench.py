"""Encoder microbenchmark: batched encode engine vs the per-window loop.

``repro bench`` runs this alongside the solver microbenchmark and writes
the result as ``BENCH_encode.json``.  Two kernels are timed:

* **window encoding** — for each (method, CR) cell the same record
  windows run through the scalar reference
  (:meth:`~repro.core.frontend.HybridFrontEnd.process_record_loop`: one
  GEMV + one symbol-at-a-time Huffman pass per window) and the batch
  engine (:meth:`~repro.core.frontend.HybridFrontEnd.encode_windows`:
  one GEMM + the table-driven vectorized coder of
  :mod:`repro.coding.vectorized`).  Unlike the solver bench, agreement
  here is not a tolerance but an equality: the cell records whether the
  concatenated packet bytes match exactly (they must — see
  ``docs/encoding.md``);
* **signal synthesis** — the vectorized phase-domain integrators
  (:func:`~repro.signals.ecgsyn.synthesize_ecg` and the database's
  per-beat variant) against their per-sample scalar oracles
  (:func:`~repro.signals.ecgsyn.synthesize_loop`,
  :func:`~repro.signals.database.synthesize_with_beats_loop`), again
  with bit-identity recorded alongside samples/sec.

CI gates on ``min_encode_speedup`` (hybrid cells) ≥ 2x, byte identity,
and database-synthesis speedup ≥ 5x.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.codebooks import CodebookKey, build_codebook
from repro.core.config import FrontEndConfig
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.signals.database import (
    _synthesize_with_beats,
    load_record,
    record_profile,
    synthesize_with_beats_loop,
)
from repro.signals.ecgsyn import synthesize_ecg, synthesize_loop

__all__ = [
    "EncodeBenchCell",
    "SynthBenchCell",
    "run_encode_bench",
    "run_synth_bench",
    "encode_bench_payload",
]

#: Front-end variants the encoder microbenchmark exercises.
BENCH_METHODS = ("hybrid", "normal")


@dataclass(frozen=True)
class EncodeBenchCell:
    """Timings and byte agreement for one (method, CR) cell."""

    method: str
    cr_percent: float
    n_measurements: int
    n_windows: int
    loop_s: float
    batched_s: float
    bytes_identical: bool

    @property
    def loop_windows_per_sec(self) -> float:
        return self.n_windows / self.loop_s

    @property
    def batched_windows_per_sec(self) -> float:
        return self.n_windows / self.batched_s

    @property
    def speedup(self) -> float:
        """Batch-engine throughput over the per-window loop."""
        return self.loop_s / self.batched_s


@dataclass(frozen=True)
class SynthBenchCell:
    """Timings and bit agreement for one synthesis kernel."""

    kind: str
    n_samples: int
    loop_s: float
    vectorized_s: float
    identical: bool

    @property
    def loop_samples_per_sec(self) -> float:
        return self.n_samples / self.loop_s

    @property
    def vectorized_samples_per_sec(self) -> float:
        return self.n_samples / self.vectorized_s

    @property
    def speedup(self) -> float:
        """Vectorized-integrator throughput over the per-sample loop."""
        return self.loop_s / self.vectorized_s


def run_encode_bench(
    base_config: FrontEndConfig,
    cr_values: Sequence[float],
    *,
    record_name: str = "100",
    n_windows: int = 32,
    duration_s: float = 60.0,
    methods: Sequence[str] = BENCH_METHODS,
) -> List[EncodeBenchCell]:
    """Time scalar vs batched encoding over a (method, CR) grid.

    One record's first ``n_windows`` windows are encoded at every CR by
    every front-end variant through both paths, and each cell records
    whether the two runs' packet bytes match.  Cells come back
    method-major in input order.
    """
    record = load_record(record_name, duration_s=duration_s)
    cells: List[EncodeBenchCell] = []
    for method in methods:
        for cr in cr_values:
            config = base_config.for_cr(cr)
            if method == "hybrid":
                codebook = build_codebook(
                    CodebookKey(
                        lowres_bits=config.lowres_bits,
                        acquisition_bits=config.acquisition_bits,
                    )
                )
                frontend = HybridFrontEnd(config, codebook)
                # Build the encode LUTs outside the timed region (paid
                # once per codebook, like the solver bench's warmed
                # factorizations).
                codebook.tables
            else:
                frontend = NormalCsFrontEnd(config)

            start = time.perf_counter()
            loop_packets = frontend.process_record_loop(
                record, max_windows=n_windows
            )
            loop_s = time.perf_counter() - start

            start = time.perf_counter()
            batched_packets = frontend.process_record(
                record, max_windows=n_windows
            )
            batched_s = time.perf_counter() - start

            cells.append(
                EncodeBenchCell(
                    method=method,
                    cr_percent=float(config.cs_cr_percent),
                    n_measurements=config.n_measurements,
                    n_windows=len(loop_packets),
                    loop_s=loop_s,
                    batched_s=batched_s,
                    bytes_identical=[p.to_bytes() for p in loop_packets]
                    == [p.to_bytes() for p in batched_packets],
                )
            )
    return cells


def run_synth_bench(
    *,
    duration_s: float = 6.0,
    fs_hz: float = 360.0,
    database_records: Sequence[str] = ("100", "106"),
    database_duration_s: float = 4.0,
) -> List[SynthBenchCell]:
    """Time the vectorized synthesis kernels against their scalar oracles.

    Returns one ``ecgsyn`` cell (plain :func:`synthesize_ecg`) and one
    ``database`` cell (the per-beat variant summed over
    ``database_records``, both leads of each via MLII only is enough for
    throughput — one lead per record keeps the smoke run fast).
    """
    start = time.perf_counter()
    fast = synthesize_ecg(duration_s, fs_hz, seed=0)
    vec_s = time.perf_counter() - start
    start = time.perf_counter()
    slow = synthesize_loop(duration_s, fs_hz, seed=0)
    loop_s = time.perf_counter() - start
    cells = [
        SynthBenchCell(
            kind="ecgsyn",
            n_samples=fast.size,
            loop_s=loop_s,
            vectorized_s=vec_s,
            identical=bool(np.array_equal(fast, slow)),
        )
    ]

    total_samples = 0
    vec_total = 0.0
    loop_total = 0.0
    identical = True
    for name in database_records:
        profile = record_profile(name)
        start = time.perf_counter()
        fast_z, fast_ann = _synthesize_with_beats(
            profile, database_duration_s, fs_hz
        )
        vec_total += time.perf_counter() - start
        start = time.perf_counter()
        slow_z, slow_ann = synthesize_with_beats_loop(
            profile, database_duration_s, fs_hz
        )
        loop_total += time.perf_counter() - start
        total_samples += fast_z.size
        identical = identical and bool(
            np.array_equal(fast_z, slow_z) and fast_ann == slow_ann
        )
    cells.append(
        SynthBenchCell(
            kind="database",
            n_samples=total_samples,
            loop_s=loop_total,
            vectorized_s=vec_total,
            identical=identical,
        )
    )
    return cells


def encode_bench_payload(
    encode_cells: Sequence[EncodeBenchCell],
    synth_cells: Sequence[SynthBenchCell],
    *,
    smoke: bool,
) -> Dict[str, object]:
    """The ``BENCH_encode.json`` document for the two cell lists."""
    hybrid_speedups = [c.speedup for c in encode_cells if c.method == "hybrid"]
    database_speedups = [
        c.speedup for c in synth_cells if c.kind == "database"
    ]
    return {
        "schema": "repro-bench-encode/v1",
        "smoke": bool(smoke),
        "cells": [
            {
                "method": c.method,
                "cr_percent": c.cr_percent,
                "n_measurements": c.n_measurements,
                "n_windows": c.n_windows,
                "loop": {
                    "wall_clock_s": c.loop_s,
                    "windows_per_sec": c.loop_windows_per_sec,
                },
                "batched": {
                    "wall_clock_s": c.batched_s,
                    "windows_per_sec": c.batched_windows_per_sec,
                },
                "speedup": c.speedup,
                "bytes_identical": c.bytes_identical,
            }
            for c in encode_cells
        ],
        "min_encode_speedup": (
            min(hybrid_speedups) if hybrid_speedups else None
        ),
        "all_bytes_identical": all(c.bytes_identical for c in encode_cells),
        "synth": {
            "cells": [
                {
                    "kind": c.kind,
                    "n_samples": c.n_samples,
                    "loop": {
                        "wall_clock_s": c.loop_s,
                        "samples_per_sec": c.loop_samples_per_sec,
                    },
                    "vectorized": {
                        "wall_clock_s": c.vectorized_s,
                        "samples_per_sec": c.vectorized_samples_per_sec,
                    },
                    "speedup": c.speedup,
                    "identical": c.identical,
                }
                for c in synth_cells
            ],
            "database_speedup": (
                min(database_speedups) if database_speedups else None
            ),
            "all_identical": all(c.identical for c in synth_cells),
        },
    }
