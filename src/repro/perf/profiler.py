"""Kernel-level wall-clock and allocation profiling behind one seam.

The hot kernels are wrapped with :func:`profiled`, whose wrapper does a
single module-global ``None`` check when no profiler is active — the
only cost the production path ever pays.  Inside a :func:`profiling`
context the active :class:`Profiler` accumulates one :class:`KernelStat`
per name: call count, wall-clock seconds and (when ``trace_alloc=True``)
tracemalloc-observed net and peak bytes.

Two caveats, by design rather than accident:

* Nested profiled calls each record their own wall time, so a parent
  kernel's seconds *include* its profiled children — read the report as
  inclusive timings, not a flat decomposition.
* tracemalloc instruments the Python allocator, so enabling
  ``trace_alloc`` slows the measured code substantially: time and
  trace in separate passes.

Everything here is stdlib-only, so any layer can import it.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, TypeVar

__all__ = [
    "KernelStat",
    "Profiler",
    "profiled",
    "profiling",
    "active_profiler",
]

F = TypeVar("F", bound=Callable[..., Any])

#: The profiler observing this process, or None (the common case).
#: Writes happen only under _STATE_LOCK; the hot-path read is a bare
#: load, which is safe because a stale None merely skips one sample.
_ACTIVE: Optional["Profiler"] = None
_STATE_LOCK = threading.Lock()


@dataclass
class KernelStat:
    """Accumulated observations for one profiled kernel name."""

    name: str
    calls: int = 0
    wall_s: float = 0.0
    #: Net bytes still allocated when the kernel returned, summed over
    #: calls (tracemalloc; 0 when allocation tracing is off).
    alloc_bytes: int = 0
    #: Highest single-call peak over the kernel's lifetime.
    peak_bytes: int = 0

    def record(self, wall_s: float, alloc_bytes: int, peak_bytes: int) -> None:
        self.calls += 1
        self.wall_s += wall_s
        self.alloc_bytes += alloc_bytes
        self.peak_bytes = max(self.peak_bytes, peak_bytes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "wall_s": self.wall_s,
            "alloc_bytes": self.alloc_bytes,
            "peak_bytes": self.peak_bytes,
        }


class Profiler:
    """Accumulates :class:`KernelStat` entries for profiled sections.

    Use via the :func:`profiling` context manager; a profiler instance
    is reusable but only one may be installed at a time.
    """

    def __init__(self, trace_alloc: bool = False) -> None:
        self.trace_alloc = bool(trace_alloc)
        self._stats: Dict[str, KernelStat] = {}
        self._lock = threading.Lock()

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time (and optionally trace allocations of) one block."""
        trace = self.trace_alloc and tracemalloc.is_tracing()
        if trace:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            alloc = peak = 0
            if trace:
                after, peak_abs = tracemalloc.get_traced_memory()
                alloc = max(0, after - before)
                peak = max(0, peak_abs - before)
            with self._lock:
                stat = self._stats.get(name)
                if stat is None:
                    stat = self._stats[name] = KernelStat(name)
                stat.record(wall, alloc, peak)

    def stats(self) -> List[KernelStat]:
        """Snapshot of accumulated stats, sorted by total wall time."""
        with self._lock:
            return sorted(
                self._stats.values(), key=lambda s: s.wall_s, reverse=True
            )

    def get(self, name: str) -> Optional[KernelStat]:
        with self._lock:
            return self._stats.get(name)

    def report(self) -> List[Dict[str, Any]]:
        """JSON-ready rows, one per profiled name (see :meth:`stats`)."""
        return [stat.to_dict() for stat in self.stats()]

    def clear(self) -> None:
        with self._lock:
            self._stats.clear()


def active_profiler() -> Optional[Profiler]:
    """The installed profiler, or None outside a :func:`profiling` block."""
    return _ACTIVE


def profiled(name: str) -> Callable[[F], F]:
    """Mark a function as a profiled kernel.

    With no active profiler the wrapper costs one global load and a
    ``None`` comparison before delegating — cheap enough to leave on
    the production hot paths unconditionally.
    """

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            prof = _ACTIVE
            if prof is None:
                return fn(*args, **kwargs)
            with prof.section(name):
                return fn(*args, **kwargs)

        wrapper.__profiled_name__ = name  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


@contextmanager
def profiling(trace_alloc: bool = False) -> Iterator[Profiler]:
    """Install a fresh :class:`Profiler` for the duration of the block.

    With ``trace_alloc=True`` tracemalloc is started on entry (if not
    already tracing) and stopped on exit (if we started it).  Blocks do
    not nest: a second concurrent ``profiling`` raises, because two
    observers would silently double-count each other's sections.
    """
    global _ACTIVE
    prof = Profiler(trace_alloc=trace_alloc)
    started_tracing = False
    with _STATE_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError("a profiler is already active in this process")
        if trace_alloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            started_tracing = True
        _ACTIVE = prof
    try:
        yield prof
    finally:
        with _STATE_LOCK:
            _ACTIVE = None
            if started_tracing:
                tracemalloc.stop()
