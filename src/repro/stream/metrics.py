"""Rolling telemetry and serializable snapshots for the streaming gateway.

A live gateway cannot afford unbounded per-window histories, so every
statistic here is either a counter or a bounded rolling aggregate:
:class:`RollingStat` keeps the last ``window`` observations of one
scalar, and the snapshot dataclasses (:class:`SessionSnapshot`,
:class:`GatewaySnapshot`) are immutable, JSON-serializable views of the
gateway state at one instant.  ``repro loadtest --verbose`` prints one
:meth:`GatewaySnapshot.summary_line` per poll, and its
``BENCH_gateway.json`` artifact carries the final snapshot's counters
and each session's rolling PRD.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RollingStat",
    "rolling_percentile",
    "SessionSnapshot",
    "GatewaySnapshot",
]


@dataclass
class RollingStat:
    """Bounded rolling aggregate of one scalar telemetry series.

    Keeps the most recent ``window`` observations (default 256) plus a
    lifetime counter, so long-running sessions report *recent* quality
    rather than an average diluted by hours of history, at O(window)
    memory.
    """

    window: int = 256
    _values: Deque[float] = field(init=False, repr=False)
    _count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        self._values = deque(maxlen=self.window)

    def push(self, value: float) -> None:
        """Record one observation (evicts the oldest beyond ``window``)."""
        self._values.append(float(value))
        self._count += 1

    @property
    def count(self) -> int:
        """Lifetime number of observations pushed."""
        return self._count

    @property
    def mean(self) -> Optional[float]:
        """Mean of the retained window; ``None`` before any observation."""
        if not self._values:
            return None
        return float(np.mean(self._values))

    @property
    def last(self) -> Optional[float]:
        """Most recent observation; ``None`` before any observation."""
        return self._values[-1] if self._values else None

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile of the retained window (``None`` if empty)."""
        return rolling_percentile(self._values, q)


def rolling_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile of a sample list, or ``None`` when empty.

    ``None`` (rather than NaN) keeps the snapshots strictly
    JSON-portable — ``json.dumps`` would emit the non-standard ``NaN``
    token otherwise.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    vals = [v for v in values if not math.isnan(v)]
    if not vals:
        return None
    return float(np.percentile(vals, q))


@dataclass(frozen=True)
class SessionSnapshot:
    """One patient session's state at a snapshot instant.

    ``rolling_prd_percent`` / ``rolling_snr_db`` are means over the
    session's bounded rolling window of *scored* solves (windows whose
    frames carried a reference); concealed windows have no reference by
    construction and are counted, not scored.
    """

    patient_id: str
    next_window: int
    windows_completed: int
    solved: int
    concealed: int
    cs_fallbacks: int
    late_drops: int
    duplicate_drops: int
    pending_reorder: int
    buffered_samples: int
    rolling_prd_percent: Optional[float]
    rolling_snr_db: Optional[float]
    #: 95th percentile of the rolling PRD window; ``None`` (never 0.0,
    #: never a crash) for a session that has applied zero scored windows.
    prd_p95_percent: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-Python dict form (JSON-ready)."""
        return {
            "patient_id": self.patient_id,
            "next_window": self.next_window,
            "windows_completed": self.windows_completed,
            "solved": self.solved,
            "concealed": self.concealed,
            "cs_fallbacks": self.cs_fallbacks,
            "late_drops": self.late_drops,
            "duplicate_drops": self.duplicate_drops,
            "pending_reorder": self.pending_reorder,
            "buffered_samples": self.buffered_samples,
            "rolling_prd_percent": self.rolling_prd_percent,
            "rolling_snr_db": self.rolling_snr_db,
            "prd_p95_percent": self.prd_p95_percent,
        }


@dataclass(frozen=True)
class GatewaySnapshot:
    """Gateway-wide telemetry at one instant, serializable to JSON.

    ``windows_inflight`` counts frames accepted but not yet resolved
    (queued at ingress plus held in per-session reorder buffers);
    ``latency_p50_s`` / ``latency_p95_s`` / ``latency_p99_s`` are
    percentiles over the bounded window of recent arrival→completion
    latencies for solved windows.  Every percentile/rate field is
    ``None`` — never 0.0, never a crash — until the statistic actually
    exists (first completed window), so an idle gateway serializes to
    honest JSON.

    ``queue_drops`` / ``queue_rejects`` / ``patient_sheds`` /
    ``shed_frames`` are the per-policy ingress shedding counters (see
    :data:`~repro.stream.gateway.SHEDDING_POLICIES`): only the counters
    of the active ``shed_policy`` can grow, the others stay zero.
    """

    uptime_s: float
    sessions: int
    windows_inflight: int
    windows_completed: int
    reconstructed_per_sec: Optional[float]
    queue_drops: int
    queue_high_water: int
    late_drops: int
    duplicate_drops: int
    concealed: int
    cs_fallbacks: int
    latency_p50_s: Optional[float]
    latency_p95_s: Optional[float]
    latency_p99_s: Optional[float] = None
    shed_policy: str = "drop-oldest"
    queue_rejects: int = 0
    patient_sheds: int = 0
    shed_frames: int = 0
    per_session: Tuple[SessionSnapshot, ...] = ()
    #: Process-wide recovery cache counters (``PROBLEM_CACHE`` hit/miss
    #: rates and occupancy, link memo sizes) at snapshot time;
    #: ``None`` when the producer did not sample them.  The recovery
    #: cache is per process, so a multi-shard snapshot reports it once —
    #: summing per-shard views of the same singleton would double count.
    recovery_cache: Optional[Dict[str, Any]] = None

    @property
    def frames_lost(self) -> int:
        """Frames discarded at ingress across every shedding policy."""
        return self.queue_drops + self.queue_rejects + self.shed_frames

    def to_dict(self) -> Dict[str, Any]:
        """Plain-Python dict form (JSON-ready)."""
        return {
            "schema": "repro-stream-snapshot/v1",
            "uptime_s": self.uptime_s,
            "sessions": self.sessions,
            "windows_inflight": self.windows_inflight,
            "windows_completed": self.windows_completed,
            "reconstructed_per_sec": self.reconstructed_per_sec,
            "shed_policy": self.shed_policy,
            "queue_drops": self.queue_drops,
            "queue_rejects": self.queue_rejects,
            "patient_sheds": self.patient_sheds,
            "shed_frames": self.shed_frames,
            "queue_high_water": self.queue_high_water,
            "late_drops": self.late_drops,
            "duplicate_drops": self.duplicate_drops,
            "concealed": self.concealed,
            "cs_fallbacks": self.cs_fallbacks,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "recovery_cache": self.recovery_cache,
            "per_session": [s.to_dict() for s in self.per_session],
        }

    def summary_line(self) -> str:
        """One human-readable status line (the periodic CLI output)."""
        prds = [
            s.rolling_prd_percent
            for s in self.per_session
            if s.rolling_prd_percent is not None
        ]
        prd = f"{float(np.mean(prds)):.2f}%" if prds else "-"
        rate = (
            f"{self.reconstructed_per_sec:.1f}/s"
            if self.reconstructed_per_sec is not None
            else "-"
        )
        p95 = (
            f"{1e3 * self.latency_p95_s:.0f}ms"
            if self.latency_p95_s is not None
            else "-"
        )
        return (
            f"[{self.uptime_s:7.2f}s] sessions={self.sessions} "
            f"done={self.windows_completed} inflight={self.windows_inflight} "
            f"rate={rate} prd={prd} p95={p95} "
            f"concealed={self.concealed} fallback={self.cs_fallbacks} "
            f"drops={self.queue_drops} rejects={self.queue_rejects} "
            f"shed={self.shed_frames}"
        )
