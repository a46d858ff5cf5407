"""Shared experiment infrastructure: scales, sweeps, aggregation.

Every figure/table driver in :mod:`repro.experiments` accepts an
:class:`ExperimentScale` so the same code serves quick benchmark runs
(default) and full-database reproductions (set the environment variable
``REPRO_BENCH_SCALE=full`` or pass :data:`FULL_SCALE` explicitly).  The
paper averages over all 48 half-hour records; statistically the window
estimates stabilize long before that, which is what the small scale
exploits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codebooks import CodebookKey
from repro.core.config import FrontEndConfig
from repro.core.outcomes import RecordOutcome
from repro.recovery.methods import resolve_method
from repro.runtime.engine import ExecutionEngine, RecordJob
from repro.runtime.executors import Executor
from repro.runtime.task import CodebookSpec
from repro.signals.database import MITBIH_RECORD_NAMES, load_record

__all__ = [
    "ExperimentScale",
    "SMALL_SCALE",
    "FULL_SCALE",
    "active_scale",
    "CrSweepPoint",
    "sweep_compression_ratios",
    "PAPER_CR_VALUES",
]

#: CS-channel compression ratios on the paper's Fig. 7 x-axis (percent).
PAPER_CR_VALUES: Tuple[float, ...] = (50.0, 56.0, 62.0, 69.0, 75.0, 81.0, 88.0, 94.0, 97.0)


@dataclass(frozen=True)
class ExperimentScale:
    """How much data an experiment run consumes.

    Attributes
    ----------
    record_names:
        Which database records participate.
    duration_s:
        Synthetic record length in seconds.
    max_windows:
        Windows evaluated per record (None = every full window).
    """

    record_names: Tuple[str, ...]
    duration_s: float
    max_windows: Optional[int]

    def records(self):
        """Load the participating records."""
        return [
            load_record(name, duration_s=self.duration_s)
            for name in self.record_names
        ]


#: Fast default: 8 morphologically diverse records, 2 windows each.
SMALL_SCALE = ExperimentScale(
    record_names=("100", "101", "103", "107", "119", "200", "208", "231"),
    duration_s=30.0,
    max_windows=2,
)

#: Full reproduction: every record, 4 windows each.
FULL_SCALE = ExperimentScale(
    record_names=MITBIH_RECORD_NAMES,
    duration_s=60.0,
    max_windows=4,
)


def active_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_BENCH_SCALE`` (``small``/``full``)."""
    choice = os.environ.get("REPRO_BENCH_SCALE", "small").strip().lower()
    if choice == "full":
        return FULL_SCALE
    if choice in ("small", ""):
        return SMALL_SCALE
    raise ValueError(
        f"REPRO_BENCH_SCALE must be 'small' or 'full', got {choice!r}"
    )


@dataclass(frozen=True)
class CrSweepPoint:
    """Aggregated results at one compression ratio for one method."""

    cr_percent: float
    method: str
    n_measurements: int
    outcomes: Tuple[RecordOutcome, ...]

    @property
    def mean_snr_db(self) -> float:
        """Grand mean of per-record mean SNRs (paper Fig. 7 top)."""
        return float(np.mean([o.mean_snr_db for o in self.outcomes]))

    @property
    def mean_prd_percent(self) -> float:
        """Grand mean of per-record mean PRDs (paper Fig. 7 bottom)."""
        return float(np.mean([o.mean_prd for o in self.outcomes]))

    @property
    def per_record_snrs(self) -> Dict[str, float]:
        """Record name → mean SNR (feeds the Fig. 8 box stats)."""
        return {o.record_name: o.mean_snr_db for o in self.outcomes}

    @property
    def net_cr_percent(self) -> float:
        """Mean net CR including low-res overhead and framing."""
        return float(np.mean([o.net_cr_percent for o in self.outcomes]))


def sweep_compression_ratios(
    base_config: FrontEndConfig,
    cr_values: Sequence[float] = PAPER_CR_VALUES,
    methods: Sequence[str] = ("hybrid", "normal"),
    scale: Optional[ExperimentScale] = None,
    cache=None,
    executor: Optional[Executor] = None,
) -> List[CrSweepPoint]:
    """The core Fig. 7/8 sweep: CR x method over the chosen scale.

    Returns one :class:`CrSweepPoint` per (CR, method), ordered by CR then
    method.  The whole record × CR × method grid is scheduled through one
    :class:`~repro.runtime.engine.ExecutionEngine` batch, so a parallel
    ``executor`` (e.g. ``ParallelExecutor(workers=4)``) overlaps window
    solves across every grid cell; hybrid tasks share one offline
    codebook recipe that workers rebuild (and cache) locally.

    Pass a :class:`repro.experiments.cache.SweepCache` (or set
    ``REPRO_CACHE_DIR``) to persist per-record outcomes and make repeated
    or interrupted full-scale sweeps resume instead of recompute; cache
    hits short-circuit scheduling entirely via the engine's stage hook.
    """
    scale = scale or active_scale()
    if cache is False:
        # Explicit opt-out (used by the identity and golden tests so
        # every point is really solved), even when REPRO_CACHE_DIR is set.
        cache = None
    elif cache is None:
        from repro.experiments.cache import cache_from_env

        cache = cache_from_env()
    records = scale.records()
    codebook_spec = CodebookSpec.default(
        CodebookKey(
            lowres_bits=base_config.lowres_bits,
            acquisition_bits=base_config.acquisition_bits,
        )
    )

    grid: List[tuple] = []
    jobs: List[RecordJob] = []
    for cr in cr_values:
        config = base_config.for_cr(cr)
        for method in methods:
            grid.append((float(cr), config, method))
            for rec in records:
                jobs.append(
                    RecordJob(
                        record=rec,
                        config=config,
                        method=method,
                        codebook=(
                            codebook_spec
                            if resolve_method(method).uses_lowres
                            else None
                        ),
                        max_windows=scale.max_windows,
                    )
                )

    hooks = (cache.stage_hook(),) if cache is not None else ()
    engine = ExecutionEngine(executor=executor, hooks=hooks)
    outcomes = engine.run_jobs(jobs)

    points: List[CrSweepPoint] = []
    per_point = len(records)
    for k, (cr, config, method) in enumerate(grid):
        chunk = outcomes[k * per_point : (k + 1) * per_point]
        points.append(
            CrSweepPoint(
                cr_percent=cr,
                method=method,
                n_measurements=config.n_measurements,
                outcomes=tuple(chunk),
            )
        )
    return points
