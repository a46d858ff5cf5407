"""Real-time multi-patient streaming telemetry over the CS front-end.

The serving layer the paper's deployment story implies: the batch
pipeline turned online.  Per-patient
:class:`~repro.stream.ingest.IngestSession`\\ s window and encode live
sample streams (bit-identical to the batch encoder),
:class:`~repro.stream.session.PatientSession`\\ s reconstruct frame
streams under loss/reordering with CRC fallback and zero-order-hold
concealment, and a :class:`~repro.stream.gateway.StreamGateway` serves
many sessions at once with bounded queues, selectable load-shedding
policies (:data:`~repro.stream.gateway.SHEDDING_POLICIES`), and
recovery-solve fan-out through the :mod:`repro.runtime` executors.

Scaling out, a :class:`~repro.stream.cluster.ShardedGateway` partitions
sessions across a fixed set of shards by a stable hash of the patient
id, fed through the length-prefixed :mod:`repro.stream.wire` byte
framing; :mod:`repro.stream.loadgen` is the deterministic load-test
harness (``repro loadtest``) that checks it against one big gateway.
See ``docs/streaming.md``.
"""

from repro.stream.cluster import ShardedGateway, stable_hash
from repro.stream.gateway import (
    SHEDDING_POLICIES,
    BoundedQueue,
    StreamGateway,
)
from repro.stream.ingest import IngestSession, StreamFrame, codebook_spec_for
from repro.stream.loadgen import (
    PHASE_SCRIPTS,
    LoadPhase,
    LoadScenario,
    StepClock,
    build_gateway,
    recovered_digest,
    run_loadtest,
)
from repro.stream.metrics import GatewaySnapshot, RollingStat, SessionSnapshot
from repro.stream.session import (
    PatientSession,
    PlannedWindow,
    RecoveredWindow,
    RecoveryTask,
    SignalRing,
    execute_recovery_task,
)
from repro.stream.wire import (
    FrameAssembler,
    WireError,
    decode_frame_body,
    encode_frame,
)

__all__ = [
    "BoundedQueue",
    "FrameAssembler",
    "GatewaySnapshot",
    "IngestSession",
    "LoadPhase",
    "LoadScenario",
    "PHASE_SCRIPTS",
    "PatientSession",
    "PlannedWindow",
    "RecoveredWindow",
    "RecoveryTask",
    "RollingStat",
    "SHEDDING_POLICIES",
    "SessionSnapshot",
    "ShardedGateway",
    "SignalRing",
    "StepClock",
    "StreamFrame",
    "StreamGateway",
    "WireError",
    "build_gateway",
    "codebook_spec_for",
    "decode_frame_body",
    "encode_frame",
    "execute_recovery_task",
    "recovered_digest",
    "run_loadtest",
    "stable_hash",
]
