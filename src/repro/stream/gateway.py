"""Multi-patient streaming gateway: bounded queues, executor fan-out.

:class:`StreamGateway` is the serving layer of the telemetry system: it
routes arriving :class:`~repro.stream.ingest.StreamFrame`\\ s into
bounded per-session ingress queues, and on each :meth:`poll` drains the
queues through the sessions' reorder logic and fans the released
recovery solves out through one pluggable
:class:`repro.runtime.executors.Executor` — the same scheduling layer
the batch sweeps use, so ``--workers N`` scales streaming recovery the
same way it scales ``repro compress``.

**Backpressure policies:** every ingress queue is a bounded FIFO of
fixed capacity with a selectable shedding policy (``shed_policy``):

* ``drop-oldest`` (default) — the oldest queued frame is discarded
  (counted in ``queue_drops``); bounded staleness, freshest data wins.
* ``drop-newest`` — the arriving frame is rejected (counted in
  ``queue_rejects``); in-flight work is never invalidated, arrivals
  during overload are sacrificed.
* ``shed-patient`` — the overloaded patient's whole backlog is cleared
  in one shed event (``patient_sheds`` events, ``shed_frames`` frames)
  and the arriving frame is accepted; one misbehaving/overdriven
  patient pays for its own overload instead of degrading smoothly.

Whatever the policy, a discarded frame later surfaces as a sequence gap
and the receiver conceals that window via the normal erasure path —
bounded staleness and bounded memory, never an unbounded backlog.
Queue high-water marks are tracked so the bound is observable (and
asserted in tests).

Wall-clock use is injectable (``clock=``) so latency/throughput
telemetry is real in production yet fully deterministic in tests.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.coding.codebook import DifferenceCodebook
from repro.core.config import FrontEndConfig
from repro.runtime.executors import Executor, SerialExecutor
from repro.runtime.stages import recovery_cache_stats
from repro.stream.ingest import StreamFrame
from repro.stream.metrics import GatewaySnapshot, rolling_percentile
from repro.stream.session import (
    PatientSession,
    PlannedWindow,
    execute_recovery_task,
)

__all__ = ["SHEDDING_POLICIES", "BoundedQueue", "StreamGateway"]

#: The ingress load-shedding policies a gateway queue can run.
SHEDDING_POLICIES = ("drop-oldest", "drop-newest", "shed-patient")


class BoundedQueue:
    """Bounded FIFO with a selectable overflow policy and per-policy counters.

    ``drops`` counts frames discarded by ``drop-oldest`` overflow,
    ``rejects`` counts arrivals refused by ``drop-newest``, and
    ``sheds``/``shed_frames`` count ``shed-patient`` backlog-clear
    events and the frames they discarded.  ``high_water`` tracks the
    deepest the queue ever got, whatever the policy.
    """

    def __init__(self, capacity: int, policy: str = "drop-oldest") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if policy not in SHEDDING_POLICIES:
            raise ValueError(
                f"unknown shedding policy {policy!r}; "
                f"choose from {SHEDDING_POLICIES}"
            )
        self.capacity = int(capacity)
        self.policy = str(policy)
        self._items: Deque = deque()
        self.drops = 0
        self.rejects = 0
        self.sheds = 0
        self.shed_frames = 0
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def lost(self) -> int:
        """Total frames this queue discarded, across all policies."""
        return self.drops + self.rejects + self.shed_frames

    def push(self, item) -> bool:
        """Enqueue ``item``; returns False when any frame was discarded.

        On overflow the configured policy decides who pays: the oldest
        queued entry (``drop-oldest``), the arriving ``item``
        (``drop-newest``), or the whole backlog (``shed-patient``, which
        then accepts ``item`` into the emptied queue).
        """
        kept = True
        if len(self._items) >= self.capacity:
            kept = False
            if self.policy == "drop-oldest":
                self._items.popleft()
                self.drops += 1
            elif self.policy == "drop-newest":
                self.rejects += 1
                return False
            else:  # shed-patient
                self.sheds += 1
                self.shed_frames += len(self._items)
                self._items.clear()
        self._items.append(item)
        self.high_water = max(self.high_water, len(self._items))
        return kept

    def popleft(self):
        """Dequeue the oldest item (raises ``IndexError`` when empty)."""
        return self._items.popleft()


class StreamGateway:
    """Receives many patients' frame streams and reconstructs them online.

    Parameters
    ----------
    executor:
        Recovery-solve scheduler; defaults to the serial executor.  A
        :class:`~repro.runtime.executors.ParallelExecutor` overlaps the
        independent window solves across processes.
    queue_capacity:
        Per-session ingress queue bound (``shed_policy`` beyond this).
    shed_policy:
        Ingress overflow policy, one of :data:`SHEDDING_POLICIES`
        (default ``drop-oldest``).
    latency_window:
        Number of recent per-window latencies retained for percentiles.
    clock:
        Monotonic time source (seconds); injectable for deterministic
        tests.
    """

    def __init__(
        self,
        *,
        executor: Optional[Executor] = None,
        queue_capacity: int = 64,
        shed_policy: str = "drop-oldest",
        latency_window: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if latency_window <= 0:
            raise ValueError("latency_window must be positive")
        if shed_policy not in SHEDDING_POLICIES:
            raise ValueError(
                f"unknown shedding policy {shed_policy!r}; "
                f"choose from {SHEDDING_POLICIES}"
            )
        self.executor = executor or SerialExecutor()
        self.queue_capacity = int(queue_capacity)
        self.shed_policy = str(shed_policy)
        self._clock = clock
        self._start = clock()
        self._sessions: Dict[str, PatientSession] = {}
        self._queues: Dict[str, BoundedQueue] = {}
        self._latencies: Deque[float] = deque(maxlen=int(latency_window))
        self._completed = 0

    # -- session management -------------------------------------------------

    def open_session(
        self,
        patient_id: str,
        config: FrontEndConfig,
        *,
        method: str = "hybrid",
        codebook: Optional[DifferenceCodebook] = None,
        reorder_depth: int = 4,
        ring_windows: int = 8,
    ) -> PatientSession:
        """Create and register the receiver session for one patient.

        Resolves the session's codebook spec eagerly so offline state is
        trained once in the gateway process (fork-based executor workers
        then inherit the cache instead of retraining per worker).
        """
        session = PatientSession(
            patient_id,
            config,
            method=method,
            codebook=codebook,
            reorder_depth=reorder_depth,
            ring_windows=ring_windows,
        )
        session.codebook_spec.resolve()
        return self.adopt_session(session)

    def session(self, patient_id: str) -> PatientSession:
        """The registered session for ``patient_id`` (KeyError if unknown)."""
        return self._sessions[patient_id]

    @property
    def sessions(self) -> Tuple[PatientSession, ...]:
        """All registered sessions, in registration order."""
        return tuple(self._sessions.values())

    def adopt_session(self, session: PatientSession) -> PatientSession:
        """Register an already built session under a fresh ingress queue."""
        if session.patient_id in self._sessions:
            raise ValueError(f"session {session.patient_id!r} already open")
        self._sessions[session.patient_id] = session
        self._queues[session.patient_id] = BoundedQueue(
            self.queue_capacity, self.shed_policy
        )
        return session

    # -- ingress ------------------------------------------------------------

    def submit(self, frame: StreamFrame) -> bool:
        """Enqueue one arriving frame for its patient's session.

        Timestamps the arrival with the gateway clock.  Returns False
        when backpressure dropped the session's oldest queued frame to
        make room.  Unknown patients raise ``KeyError`` — erased frames
        simply never show up here, exactly like a real radio.
        """
        queue = self._queues[frame.patient_id]
        return queue.push((frame, self._clock()))

    # -- processing ---------------------------------------------------------

    def poll(self) -> int:
        """Drain every ingress queue and resolve all released windows.

        One poll: queued frames flow through their sessions' reorder
        logic; every released solve is fanned out through the executor
        as one flat batch (windows from different sessions interleave
        freely — they are independent); concealments and results are
        applied back in per-session window order.  Returns the number of
        windows completed.
        """
        planned: List[Tuple[PatientSession, PlannedWindow]] = []
        for patient_id, queue in self._queues.items():
            session = self._sessions[patient_id]
            while len(queue):
                frame, arrival_ts = queue.popleft()
                planned.extend(
                    (session, p) for p in session.offer(frame, arrival_ts)
                )
        return self._complete(planned)

    def finish(self) -> int:
        """Drain queues, then flush every session's reorder buffer.

        Call once at end of stream; returns windows completed by the
        final flush (concealing any unfilled gaps).
        """
        completed = self.poll()
        planned: List[Tuple[PatientSession, PlannedWindow]] = []
        for session in self._sessions.values():
            planned.extend((session, p) for p in session.finish())
        return completed + self._complete(planned)

    def _complete(self, planned: List[Tuple[PatientSession, PlannedWindow]]) -> int:
        tasks = [p.task for _, p in planned if p.task is not None]
        results = (
            self.executor.run_tasks(tasks, fn=execute_recovery_task)
            if tasks
            else []
        )
        result_iter = iter(results)
        now = self._clock()
        for session, plan in planned:
            result = next(result_iter) if plan.task is not None else None
            session.apply(plan, result)
            if plan.arrival_ts is not None:
                self._latencies.append(now - plan.arrival_ts)
        self._completed += len(planned)
        return len(planned)

    # -- telemetry ----------------------------------------------------------

    @property
    def windows_inflight(self) -> int:
        """Frames accepted but not yet resolved (queued + reorder-held)."""
        queued = sum(len(q) for q in self._queues.values())
        held = sum(s.pending_reorder for s in self._sessions.values())
        return queued + held

    @property
    def recent_latencies(self) -> Tuple[float, ...]:
        """The retained arrival→completion latency samples (seconds).

        Exposed so a cluster front can merge percentile *samples* across
        shards — percentiles themselves do not compose.
        """
        return tuple(self._latencies)

    def snapshot(self) -> GatewaySnapshot:
        """Current gateway-wide telemetry as an immutable snapshot."""
        uptime = self._clock() - self._start
        # null, not 0.0: a rate only exists once a window has completed
        # inside a positive uptime.
        rate = (
            self._completed / uptime
            if uptime > 0 and self._completed > 0
            else None
        )
        return GatewaySnapshot(
            uptime_s=uptime,
            sessions=len(self._sessions),
            windows_inflight=self.windows_inflight,
            windows_completed=self._completed,
            reconstructed_per_sec=rate,
            shed_policy=self.shed_policy,
            queue_drops=sum(q.drops for q in self._queues.values()),
            queue_rejects=sum(q.rejects for q in self._queues.values()),
            patient_sheds=sum(q.sheds for q in self._queues.values()),
            shed_frames=sum(q.shed_frames for q in self._queues.values()),
            queue_high_water=max(
                (q.high_water for q in self._queues.values()), default=0
            ),
            late_drops=sum(s.late_drops for s in self._sessions.values()),
            duplicate_drops=sum(
                s.duplicate_drops for s in self._sessions.values()
            ),
            concealed=sum(s.concealed for s in self._sessions.values()),
            cs_fallbacks=sum(s.cs_fallbacks for s in self._sessions.values()),
            latency_p50_s=rolling_percentile(self._latencies, 50.0),
            latency_p95_s=rolling_percentile(self._latencies, 95.0),
            latency_p99_s=rolling_percentile(self._latencies, 99.0),
            per_session=tuple(
                s.snapshot() for s in self._sessions.values()
            ),
            recovery_cache=recovery_cache_stats(),
        )
