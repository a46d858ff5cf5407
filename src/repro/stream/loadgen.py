"""Deterministic load-test harness behind ``repro loadtest``.

Replays *thousands* of interleaved synthetic patients against a gateway
— the single-process :class:`~repro.stream.gateway.StreamGateway` or the
sharded :class:`~repro.stream.cluster.ShardedGateway` — and emits one
machine-readable ``BENCH_gateway.json`` payload (p50/p95/p99 frame
latency, frames/sec, drop/conceal/shed rates, per-shard balance).

Determinism is total on the data path: patient ``i`` replays synthetic
record ``MITBIH_RECORD_NAMES[i % 48]`` under a fresh patient id, every
lossy link is seeded from ``(seed, phase, patient)``, and the gateway
clock is an injectable :class:`StepClock` advanced a fixed tick per
playback round — so two runs of the same :class:`LoadScenario` transmit
byte-identical frames, suffer identical erasures, and report identical
latency percentiles.  Only the wall-clock throughput number varies with
the machine.

Overload is *scripted*, not accidental: the timeline is divided into
:class:`LoadPhase`\\ s, each with its own erasure/bit-error rates and
poll cadence.  A phase with ``poll_every=0`` starves the gateway of
polls while arrivals continue — ingress queues fill past capacity and
the configured shedding policy (see
:data:`~repro.stream.gateway.SHEDDING_POLICIES`) decides who pays,
which is exactly what the loadtest is there to measure.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.channel import LossyLink
from repro.core.config import FrontEndConfig
from repro.runtime.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
)
from repro.signals.database import (
    MITBIH_RECORD_NAMES,
    iter_record_chunks,
    load_record,
)
from repro.stream.cluster import ShardedGateway
from repro.stream.gateway import SHEDDING_POLICIES, StreamGateway
from repro.stream.ingest import IngestSession, StreamFrame

__all__ = [
    "StepClock",
    "LoadPhase",
    "LoadScenario",
    "PHASE_SCRIPTS",
    "build_gateway",
    "recovered_digest",
    "run_loadtest",
]

#: Seed stride between phases, so per-phase links are independent.
_PHASE_SEED_STRIDE = 1_000_003


class StepClock:
    """A manually advanced monotonic clock (callable, seconds).

    Injected as the gateway ``clock`` so latency/throughput telemetry is
    a pure function of the scenario: the harness advances it one fixed
    tick per playback round, never from the wall.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance a monotonic clock backwards")
        self._now += float(dt)


@dataclass(frozen=True)
class LoadPhase:
    """One scripted stretch of the load timeline.

    Attributes
    ----------
    name:
        Label in the per-phase section of the artifact.
    fraction:
        Share of the playback rounds this phase covers (normalized over
        the scenario's phases).
    erasure_rate / bit_error_rate:
        Link impairments during the phase.
    poll_every:
        Gateway poll cadence in playback rounds; ``0`` starves the
        gateway for the whole phase (the scripted overload/burst: queues
        fill and the shedding policy engages).
    """

    name: str
    fraction: float
    erasure_rate: float = 0.0
    bit_error_rate: float = 0.0
    poll_every: int = 4

    def __post_init__(self) -> None:
        if self.fraction <= 0:
            raise ValueError("fraction must be positive")
        if self.poll_every < 0:
            raise ValueError("poll_every cannot be negative")


#: Named phase scripts selectable as ``repro loadtest --phases NAME``.
PHASE_SCRIPTS: Dict[str, Tuple[LoadPhase, ...]] = {
    # Steady nominal-rate traffic, no impairments: the acceptance run —
    # every frame must arrive and zero frames may be shed.
    "nominal": (LoadPhase("nominal", 1.0),),
    # One stretch over a 10% erasure link, seeded ``seed + i`` per
    # patient: the everyday lossy-telemetry run, with concealment.
    "lossy": (LoadPhase("lossy", 1.0, erasure_rate=0.1),),
    # Nominal warm-up, then a lossy stretch, then a poll-starved
    # overload burst: exercises concealment and shedding in one run.
    "stress": (
        LoadPhase("nominal", 0.4),
        LoadPhase("loss", 0.3, erasure_rate=0.25),
        LoadPhase("overload", 0.3, poll_every=0),
    ),
}


@dataclass(frozen=True)
class LoadScenario:
    """Parameters of one deterministic gateway load test.

    ``patients`` may exceed the 48 synthetic records: patient ``i``
    replays record ``i % 48`` under its own ``p<i>`` identity (the
    record cache makes the reuse free), which is how a laptop-sized run
    still interleaves thousands of concurrent sessions.
    """

    patients: int = 200
    duration_s: float = 1.5
    config: FrontEndConfig = FrontEndConfig()
    method: str = "hybrid"
    chunk_size: int = 181
    seed: int = 0
    queue_capacity: int = 64
    shed_policy: str = "drop-oldest"
    reorder_depth: int = 4
    ring_windows: int = 8
    phases: Tuple[LoadPhase, ...] = field(
        default_factory=lambda: PHASE_SCRIPTS["nominal"]
    )
    #: Simulated seconds per playback round; default = one chunk of
    #: samples at the record rate (i.e. real-time playback).
    tick_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.patients < 1:
            raise ValueError("patients must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.shed_policy not in SHEDDING_POLICIES:
            raise ValueError(
                f"unknown shedding policy {self.shed_policy!r}; "
                f"choose from {SHEDDING_POLICIES}"
            )
        if not self.phases:
            raise ValueError("need at least one phase")
        if self.tick_s is not None and self.tick_s < 0:
            raise ValueError("tick_s cannot be negative")

    def patient_ids(self) -> List[str]:
        """The synthetic patient identities, in submission order."""
        return [f"p{i:04d}" for i in range(self.patients)]

    def record_name_for(self, index: int) -> str:
        """Which synthetic record patient ``index`` replays."""
        return MITBIH_RECORD_NAMES[index % len(MITBIH_RECORD_NAMES)]


def _phase_schedule(
    phases: Tuple[LoadPhase, ...], rounds: int
) -> List[int]:
    """Map each playback round to its phase index (fractions normalized)."""
    total = sum(p.fraction for p in phases)
    edges = []
    acc = 0.0
    for phase in phases:
        acc += phase.fraction / total
        edges.append(acc)
    schedule = []
    for r in range(rounds):
        progress = (r + 1) / rounds
        index = next(
            i for i, edge in enumerate(edges) if progress <= edge + 1e-12
        )
        schedule.append(index)
    return schedule


def _rate(count: int, total: int) -> Optional[float]:
    """``count / total`` as a rate, ``None`` when the denominator is zero."""
    return count / total if total > 0 else None


def build_gateway(
    scenario: LoadScenario,
    clock: Callable[[], float],
    *,
    shards: int = 1,
    workers: int = 1,
) -> Union[StreamGateway, ShardedGateway]:
    """The gateway under test: single-process, or sharded for ``shards > 1``.

    ``workers > 1`` gives each gateway (each *shard*, in cluster mode) a
    persistent worker pool — the long-lived-service executor lifecycle,
    released by ``gateway.executor.shutdown()`` / ``cluster.close()``.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")

    def make_executor() -> Executor:
        if workers > 1:
            return ParallelExecutor(workers=workers, persistent=True)
        return SerialExecutor()

    if shards == 1:
        return StreamGateway(
            executor=make_executor(),
            queue_capacity=scenario.queue_capacity,
            shed_policy=scenario.shed_policy,
            clock=clock,
        )
    return ShardedGateway(
        shards,
        executor_factory=lambda name: make_executor(),
        queue_capacity=scenario.queue_capacity,
        shed_policy=scenario.shed_policy,
        clock=clock,
    )


def recovered_digest(
    gateway: Union[StreamGateway, ShardedGateway]
) -> str:
    """SHA-256 over every session's recovered output and loss accounting.

    The identity check between runtimes: a single-process and a sharded
    run over the same scenario must produce the same digest — same
    retained reconstruction bytes, same solve/conceal/fallback counts,
    per patient.  Sessions are folded in patient-id order so shard
    layout cannot leak into the hash.
    """
    h = hashlib.sha256()
    for session in sorted(gateway.sessions, key=lambda s: s.patient_id):
        h.update(session.patient_id.encode("utf-8"))
        counts = np.array(
            [
                session.solved,
                session.concealed,
                session.cs_fallbacks,
                session.late_drops,
                session.duplicate_drops,
                session.ring.total_written,
            ],
            dtype=np.int64,
        )
        h.update(counts.tobytes())
        h.update(np.ascontiguousarray(session.ring.read()).tobytes())
    return h.hexdigest()


def run_loadtest(
    scenario: LoadScenario,
    *,
    shards: int = 1,
    workers: int = 1,
    on_progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Drive one scenario to completion; return the artifact payload.

    The returned dict is the ``BENCH_gateway.json`` schema: scenario
    echo, runtime mode, wall/simulated time, frame accounting, latency
    percentiles (simulated clock), per-policy shedding counters,
    per-phase traffic, per-shard balance, each patient's rolling PRD
    (``None`` for a patient with no scored window), and the
    :func:`recovered_digest` identity hash.
    """
    cfg = scenario.config
    ids = scenario.patient_ids()
    # Distinct records only — the LRU record cache plus shared chunk
    # views keep thousands of patients at tens-of-records memory cost.
    chunks_by_name = {
        name: list(
            iter_record_chunks(
                load_record(name, duration_s=scenario.duration_s),
                scenario.chunk_size,
            )
        )
        for name in {
            scenario.record_name_for(i) for i in range(scenario.patients)
        }
    }
    playback = [
        chunks_by_name[scenario.record_name_for(i)]
        for i in range(scenario.patients)
    ]
    rounds = max(len(chunks) for chunks in playback)
    schedule = _phase_schedule(scenario.phases, rounds)
    tick = (
        scenario.tick_s
        if scenario.tick_s is not None
        else scenario.chunk_size / 360.0
    )

    clock = StepClock()
    gateway = build_gateway(scenario, clock, shards=shards, workers=workers)
    encoders: Dict[str, IngestSession] = {}
    for i, pid in enumerate(ids):
        encoders[pid] = IngestSession(pid, cfg, method=scenario.method)
        gateway.open_session(
            pid,
            cfg,
            method=scenario.method,
            reorder_depth=scenario.reorder_depth,
            ring_windows=scenario.ring_windows,
        )

    links: Dict[Tuple[int, int], LossyLink] = {}

    def link_for(phase_index: int, patient_index: int) -> LossyLink:
        key = (phase_index, patient_index)
        if key not in links:
            phase = scenario.phases[phase_index]
            links[key] = LossyLink(
                bit_error_rate=phase.bit_error_rate,
                packet_erasure_rate=phase.erasure_rate,
                seed=scenario.seed
                + _PHASE_SEED_STRIDE * phase_index
                + patient_index,
            )
        return links[key]

    frames_sent = 0
    frames_erased = 0
    frames_delivered = 0
    per_phase: List[Dict[str, Any]] = [
        {"name": p.name, "rounds": 0, "frames_sent": 0, "frames_erased": 0}
        for p in scenario.phases
    ]

    wall_start = time.perf_counter()
    rounds_in_phase = 0
    for r in range(rounds):
        phase_index = schedule[r]
        phase = scenario.phases[phase_index]
        if r > 0 and schedule[r - 1] != phase_index:
            rounds_in_phase = 0
        per_phase[phase_index]["rounds"] += 1
        for i, pid in enumerate(ids):
            if r >= len(playback[i]):
                continue
            for frame in encoders[pid].push(playback[i][r]):
                frames_sent += 1
                per_phase[phase_index]["frames_sent"] += 1
                impaired = link_for(phase_index, i).transmit(frame.packet)
                if impaired is None:
                    frames_erased += 1
                    per_phase[phase_index]["frames_erased"] += 1
                    continue
                frames_delivered += 1
                gateway.submit(
                    StreamFrame(
                        patient_id=pid,
                        packet=impaired,
                        crc=frame.crc,
                        reference=frame.reference,
                    )
                )
        clock.advance(tick)
        rounds_in_phase += 1
        if phase.poll_every and rounds_in_phase % phase.poll_every == 0:
            gateway.poll()
            if on_progress is not None:
                on_progress(
                    f"[{phase.name}] round {r + 1}/{rounds}: "
                    f"{gateway.snapshot().summary_line()}"
                )
    gateway.finish()
    wall_s = time.perf_counter() - wall_start

    snapshot = gateway.snapshot()
    digest = recovered_digest(gateway)
    balance = gateway.balance() if isinstance(gateway, ShardedGateway) else None
    if hasattr(gateway, "close"):
        gateway.close()
    else:
        gateway.executor.shutdown()

    completed = snapshot.windows_completed
    return {
        "schema": "repro-bench-gateway/v1",
        "scenario": {
            "patients": scenario.patients,
            "duration_s": scenario.duration_s,
            "method": scenario.method,
            "window_len": cfg.window_len,
            "n_measurements": cfg.n_measurements,
            "chunk_size": scenario.chunk_size,
            "seed": scenario.seed,
            "queue_capacity": scenario.queue_capacity,
            "shed_policy": scenario.shed_policy,
            "reorder_depth": scenario.reorder_depth,
            "tick_s": tick,
            "phases": [
                {
                    "name": p.name,
                    "fraction": p.fraction,
                    "erasure_rate": p.erasure_rate,
                    "bit_error_rate": p.bit_error_rate,
                    "poll_every": p.poll_every,
                }
                for p in scenario.phases
            ],
        },
        "mode": {
            "shards": shards,
            "workers": workers,
        },
        "wall_s": wall_s,
        "sim_s": clock(),
        "frames_sent": frames_sent,
        "frames_erased": frames_erased,
        "frames_delivered": frames_delivered,
        "windows_completed": completed,
        "frames_per_sec": completed / wall_s if wall_s > 0 else None,
        "latency_p50_s": snapshot.latency_p50_s,
        "latency_p95_s": snapshot.latency_p95_s,
        "latency_p99_s": snapshot.latency_p99_s,
        "queue_drops": snapshot.queue_drops,
        "queue_rejects": snapshot.queue_rejects,
        "patient_sheds": snapshot.patient_sheds,
        "shed_frames": snapshot.shed_frames,
        "frames_lost": snapshot.frames_lost,
        "queue_high_water": snapshot.queue_high_water,
        "concealed": snapshot.concealed,
        "cs_fallbacks": snapshot.cs_fallbacks,
        "late_drops": snapshot.late_drops,
        "duplicate_drops": snapshot.duplicate_drops,
        "conceal_rate": _rate(snapshot.concealed, completed),
        "shed_rate": _rate(snapshot.frames_lost, frames_delivered),
        "per_phase": per_phase,
        "per_shard": balance,
        "rolling_prd_pct": {
            s.patient_id: s.rolling_prd_percent
            for s in sorted(snapshot.per_session, key=lambda s: s.patient_id)
        },
        "recovered_digest": digest,
    }
