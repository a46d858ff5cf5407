"""Performance subsystem: workspace buffer reuse + hot-path profiling.

The batched engines (PRs 4-5, 9) are GEMM-bound, but every solver
iteration and every encode call still allocated a fresh set of
temporaries — for the BSBL E-step that is ``(k, m, n)`` and
``(k, m, m)`` stacks per EM iteration.  This package removes that churn and makes it measurable:

* :mod:`repro.perf.workspace` — named reusable buffers
  (:class:`Workspace`) handed out per ``(backend, precision,
  shape-class)`` by a process-wide :class:`WorkspacePool`, with a
  :class:`NullWorkspace` that allocates fresh on every request so the
  no-reuse baseline runs through the *same* code path (which is what
  makes the bit-identity property suite trivial to state and honest to
  run);
* :mod:`repro.perf.profiler` — stage/kernel wall-clock timers and
  tracemalloc-backed allocation counters behind the near-zero-overhead
  :func:`profiled` seam (one global ``None`` check when profiling is
  off).

``repro profile`` drives both and writes ``BENCH_profile.json``
(schema ``repro-bench-profile/v1``); see ``docs/performance.md``.
"""

from repro.perf.profiler import (
    KernelStat,
    Profiler,
    active_profiler,
    profiled,
    profiling,
)
from repro.perf.workspace import (
    POOL,
    NullWorkspace,
    Workspace,
    WorkspacePool,
    lease_workspace,
    pool_stats,
    reset_pool,
    use_workspaces,
    workspaces_enabled,
)

__all__ = [
    "Workspace",
    "NullWorkspace",
    "WorkspacePool",
    "POOL",
    "lease_workspace",
    "pool_stats",
    "reset_pool",
    "use_workspaces",
    "workspaces_enabled",
    "KernelStat",
    "Profiler",
    "profiled",
    "profiling",
    "active_profiler",
]
