"""Synthetic end-to-end stream driver: N patients → lossy link → gateway.

The harness behind ``repro stream``: it replays synthetic MIT-BIH
records as interleaved chunked sample streams
(:func:`repro.signals.database.interleave_playback` — deterministic,
wall-clock-free), encodes them through per-patient
:class:`~repro.stream.ingest.IngestSession`\\ s, impairs each patient's
frames with an independent seeded
:class:`~repro.core.channel.LossyLink`, and feeds the survivors into a
:class:`~repro.stream.gateway.StreamGateway` that is polled every
``poll_every`` chunks.  Gateway throughput is measured by the
``gateway_realtime`` workload of ``perfbench/`` (see
``perfbench/README.md``).

Everything upstream of the gateway clock is deterministic in the
parameters, so two runs with the same :class:`StreamScenario` transmit
byte-identical frames and suffer identical erasures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.channel import LossyLink
from repro.core.config import FrontEndConfig
from repro.runtime.executors import Executor
from repro.signals.database import (
    MITBIH_RECORD_NAMES,
    interleave_playback,
    load_record,
)
from repro.stream.gateway import StreamGateway
from repro.stream.ingest import IngestSession, StreamFrame
from repro.stream.metrics import GatewaySnapshot

__all__ = ["StreamScenario", "run_stream_scenario"]


@dataclass(frozen=True)
class StreamScenario:
    """Parameters of one synthetic multi-patient streaming run.

    Attributes
    ----------
    patients:
        Number of concurrent patient streams (records are the first N
        MIT-BIH names).
    duration_s:
        Length of each patient's record in seconds.
    config:
        Shared link configuration for every patient.
    method:
        Front-end method for every patient (``"hybrid"``/``"normal"``).
    chunk_size:
        Samples per playback chunk (a deliberately window-misaligned
        default exercises the incremental framer).
    erasure_rate / bit_error_rate:
        Per-patient :class:`~repro.core.channel.LossyLink` impairments.
    seed:
        Base channel seed; patient ``i`` uses ``seed + i``.
    queue_capacity / reorder_depth / ring_windows:
        Gateway/session bounds (see their classes).
    shed_policy:
        Gateway ingress overflow policy, one of
        :data:`~repro.stream.gateway.SHEDDING_POLICIES`.
    poll_every:
        Gateway poll cadence, in playback chunks.
    """

    patients: int = 4
    duration_s: float = 10.0
    config: FrontEndConfig = FrontEndConfig()
    method: str = "hybrid"
    chunk_size: int = 181
    erasure_rate: float = 0.1
    bit_error_rate: float = 0.0
    seed: int = 0
    queue_capacity: int = 64
    shed_policy: str = "drop-oldest"
    reorder_depth: int = 4
    ring_windows: int = 8
    poll_every: int = 8

    def __post_init__(self) -> None:
        if self.patients < 1:
            raise ValueError("patients must be >= 1")
        if self.patients > len(MITBIH_RECORD_NAMES):
            raise ValueError(
                f"at most {len(MITBIH_RECORD_NAMES)} synthetic patients available"
            )
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.chunk_size <= 0 or self.poll_every <= 0:
            raise ValueError("chunk_size and poll_every must be positive")


def run_stream_scenario(
    scenario: StreamScenario,
    *,
    executor: Optional[Executor] = None,
    clock: Callable[[], float] = time.monotonic,
    on_snapshot: Optional[Callable[[GatewaySnapshot], None]] = None,
) -> GatewaySnapshot:
    """Drive one scenario to completion; return the final snapshot.

    ``on_snapshot`` (if given) is called with a fresh
    :class:`~repro.stream.metrics.GatewaySnapshot` after every gateway
    poll — the hook the CLI uses for its periodic status lines.
    """
    cfg = scenario.config
    names = MITBIH_RECORD_NAMES[: scenario.patients]
    records = [
        load_record(name, duration_s=scenario.duration_s) for name in names
    ]
    encoders = {
        name: IngestSession(name, cfg, method=scenario.method)
        for name in names
    }
    links = {
        name: LossyLink(
            bit_error_rate=scenario.bit_error_rate,
            packet_erasure_rate=scenario.erasure_rate,
            seed=scenario.seed + i,
        )
        for i, name in enumerate(names)
    }
    gateway = StreamGateway(
        executor=executor,
        queue_capacity=scenario.queue_capacity,
        shed_policy=scenario.shed_policy,
        clock=clock,
    )
    for name in names:
        gateway.open_session(
            name,
            cfg,
            method=scenario.method,
            reorder_depth=scenario.reorder_depth,
            ring_windows=scenario.ring_windows,
        )

    chunks_seen = 0
    for name, chunk in interleave_playback(records, scenario.chunk_size):
        for frame in encoders[name].push(chunk):
            impaired = links[name].transmit(frame.packet)
            if impaired is None:
                continue  # erased on air: the receiver sees only a gap
            gateway.submit(
                StreamFrame(
                    patient_id=frame.patient_id,
                    packet=impaired,
                    crc=frame.crc,
                    reference=frame.reference,
                )
            )
        chunks_seen += 1
        if chunks_seen % scenario.poll_every == 0:
            gateway.poll()
            if on_snapshot is not None:
                on_snapshot(gateway.snapshot())

    gateway.finish()
    return gateway.snapshot()
