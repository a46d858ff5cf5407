"""Performance subsystem: hot-path profiling.

:mod:`repro.perf.profiler` holds stage/kernel wall-clock timers and
tracemalloc-backed allocation counters behind the near-zero-overhead
:func:`profiled` seam (one global ``None`` check when profiling is off).
"""

from repro.perf.profiler import (
    KernelStat,
    Profiler,
    active_profiler,
    profiled,
    profiling,
)

__all__ = [
    "KernelStat",
    "Profiler",
    "profiled",
    "profiling",
    "active_profiler",
]
