"""Sharded streaming gateway: a fixed fleet behind wire-framed ingress.

The horizontal story for :class:`~repro.stream.gateway.StreamGateway`:
a :class:`ShardedGateway` partitions :class:`~repro.stream.session.
PatientSession`\\ s across a fixed set of shards, chosen at
construction, by ``stable_hash(patient_id) % shards``; each shard runs
the existing single-process gateway loop with its own
:class:`~repro.runtime.executors.Executor`.  Because every session is
pinned to exactly one shard and the per-window solves are pure
functions, the cluster's recovered output is **bit-identical** to one
big gateway fed the same frames — the equivalence the tests assert
per-patient, down to conceal/drop accounting.

Ingress is always wire-framed: frames are serialized through the
length-prefixed :mod:`repro.stream.wire` format and re-assembled at the
shard from MTU-sized byte chunks, exercising exactly what a socket pair
between an ingress front and a shard process would carry.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.coding.codebook import DifferenceCodebook
from repro.core.config import FrontEndConfig
from repro.runtime.executors import Executor
from repro.runtime.stages import recovery_cache_stats
from repro.stream.gateway import SHEDDING_POLICIES, StreamGateway
from repro.stream.ingest import StreamFrame
from repro.stream.metrics import GatewaySnapshot, rolling_percentile
from repro.stream.session import PatientSession
from repro.stream.wire import FrameAssembler, encode_frame

__all__ = ["stable_hash", "ShardedGateway"]

#: Wire chunk size — deliberately prime so frame boundaries almost never
#: align with delivery boundaries.
DEFAULT_WIRE_MTU = 509


def stable_hash(key: str) -> int:
    """A process-stable 64-bit hash of ``key``.

    ``hash()`` is salted per interpreter run; routing must be a pure
    function of the patient id so that placement is reproducible across
    runs, machines, and restarts.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _WireChannel:
    """One shard's byte-stream ingress: encode → chunked delivery → shard.

    Models the socket between the ingress front and a shard worker: the
    producer side appends encoded frame bytes to an outbox, and
    :meth:`pump` delivers them to the shard's
    :class:`~repro.stream.wire.FrameAssembler` in
    :data:`DEFAULT_WIRE_MTU`-sized chunks (a trailing partial chunk
    waits for more bytes, exactly like a nagled socket; :meth:`flush`
    pushes it through at end of stream).
    """

    def __init__(self, measurement_bits: int) -> None:
        self.assembler = FrameAssembler(measurement_bits)
        self._outbox = bytearray()

    def send(self, frame: StreamFrame) -> None:
        self._outbox.extend(encode_frame(frame))

    def pump(self) -> List[StreamFrame]:
        """Deliver every full MTU chunk; return the frames they completed."""
        frames: List[StreamFrame] = []
        while len(self._outbox) >= DEFAULT_WIRE_MTU:
            chunk = bytes(self._outbox[:DEFAULT_WIRE_MTU])
            del self._outbox[:DEFAULT_WIRE_MTU]
            frames.extend(self.assembler.feed(chunk))
        return frames

    def deliver_pending(self) -> List[StreamFrame]:
        """Deliver every buffered byte; the stream stays open.

        The poll-time flush: a trailing sub-MTU chunk is pushed through
        instead of nagling past the poll, so frame *delivery* timing
        relative to gateway polls matches a direct hand-off — which is
        what keeps the sharded runtime's reorder release, concealment
        and shedding timing identical to single-process.
        """
        frames = self.pump()
        if self._outbox:
            frames.extend(self.assembler.feed(bytes(self._outbox)))
            self._outbox.clear()
        return frames

    def flush(self) -> List[StreamFrame]:
        """Deliver everything, close the stream, assert a clean boundary."""
        frames = self.deliver_pending()
        self.assembler.close()
        return frames


class ShardedGateway:
    """A fixed set of gateway shards behind one routing front.

    The public surface mirrors :class:`~repro.stream.gateway.
    StreamGateway` (``open_session`` / ``submit`` / ``poll`` /
    ``finish`` / ``snapshot``), so drivers and benchmarks swap between
    the single-process and sharded runtimes with one constructor change.

    Parameters
    ----------
    shards:
        Shard count; the shards are named ``shard-0..N-1``.
    executor_factory:
        ``factory(shard_name) -> Executor`` building each shard's solve
        scheduler (default: a fresh serial executor per shard).  The
        factory seam is what lets a benchmark give every shard its own
        process pool while tests keep everything serial.
    queue_capacity / shed_policy / clock:
        Forwarded to every shard's :class:`StreamGateway`.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        executor_factory: Optional[Callable[[str], Executor]] = None,
        queue_capacity: int = 64,
        shed_policy: str = "drop-oldest",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if shed_policy not in SHEDDING_POLICIES:
            raise ValueError(
                f"unknown shedding policy {shed_policy!r}; "
                f"choose from {SHEDDING_POLICIES}"
            )
        self.shed_policy = str(shed_policy)
        self._clock = clock
        self._start = clock()
        names = [f"shard-{i}" for i in range(shards)]
        self._shards: Dict[str, StreamGateway] = {
            name: StreamGateway(
                executor=(
                    executor_factory(name)
                    if executor_factory is not None
                    else None
                ),
                queue_capacity=queue_capacity,
                shed_policy=shed_policy,
                clock=clock,
            )
            for name in names
        }
        self._channels: Dict[str, _WireChannel] = {}
        self._owner: Dict[str, str] = {}  # patient id -> shard name
        self._measurement_bits: Optional[int] = None

    def _channel_for(self, shard: str) -> _WireChannel:
        if shard not in self._channels:
            assert self._measurement_bits is not None
            self._channels[shard] = _WireChannel(self._measurement_bits)
        return self._channels[shard]

    # -- session management -------------------------------------------------

    def owner_of(self, patient_id: str) -> str:
        """Which shard serves ``patient_id``."""
        return self._owner[patient_id]

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
        """Create the patient's receiver session on its hash-owned shard."""
        if patient_id in self._owner:
            raise ValueError(f"session {patient_id!r} already open")
        if self._measurement_bits is None:
            self._measurement_bits = config.measurement_bits
        elif self._measurement_bits != config.measurement_bits:
            raise ValueError(
                "wire ingress requires a uniform measurement_bits "
                "across sessions (it is offline shared state)"
            )
        shard = f"shard-{stable_hash(patient_id) % len(self._shards)}"
        session = self._shards[shard].open_session(
            patient_id,
            config,
            method=method,
            codebook=codebook,
            reorder_depth=reorder_depth,
            ring_windows=ring_windows,
        )
        self._owner[patient_id] = shard
        return session

    @property
    def sessions(self) -> Tuple[PatientSession, ...]:
        """Every session across all shards, grouped by shard."""
        return tuple(
            s for gw in self._shards.values() for s in gw.sessions
        )

    # -- ingress ------------------------------------------------------------

    def submit(self, frame: StreamFrame) -> bool:
        """Route one arriving frame to its owning shard's wire channel.

        Returns False when the shard's ingress queue shed a frame to
        absorb one of the frames this send completed.
        """
        shard = self._owner[frame.patient_id]
        channel = self._channel_for(shard)
        channel.send(frame)
        ok = True
        for delivered in channel.pump():
            ok = self._shards[shard].submit(delivered) and ok
        return ok

    # -- processing ---------------------------------------------------------

    def poll(self) -> int:
        """Deliver buffered wire bytes and poll every shard."""
        for shard, channel in self._channels.items():
            for delivered in channel.deliver_pending():
                self._shards[shard].submit(delivered)
        return sum(gateway.poll() for gateway in self._shards.values())

    def finish(self) -> int:
        """Flush and close the wire channels, finish every shard."""
        for shard, channel in self._channels.items():
            for delivered in channel.flush():
                self._shards[shard].submit(delivered)
        self._channels.clear()
        return sum(gateway.finish() for gateway in self._shards.values())

    def close(self) -> None:
        """Release every shard's executor (idempotent)."""
        for gateway in self._shards.values():
            gateway.executor.shutdown()

    def __enter__(self) -> "ShardedGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- telemetry ----------------------------------------------------------

    def shard_snapshots(self) -> Dict[str, GatewaySnapshot]:
        """Per-shard telemetry, keyed by shard name."""
        return {name: gw.snapshot() for name, gw in self._shards.items()}

    def snapshot(self) -> GatewaySnapshot:
        """Cluster-wide telemetry in the single-gateway snapshot schema.

        Counters are sums over shards; latency percentiles are computed
        over the union of the shards' retained latency windows (you
        cannot merge percentiles, only samples).
        """
        shard_snaps = list(self.shard_snapshots().values())
        uptime = self._clock() - self._start
        completed = sum(s.windows_completed for s in shard_snaps)
        latencies = [
            lat for gw in self._shards.values() for lat in gw.recent_latencies
        ]
        return GatewaySnapshot(
            uptime_s=uptime,
            sessions=sum(s.sessions for s in shard_snaps),
            windows_inflight=sum(s.windows_inflight for s in shard_snaps),
            windows_completed=completed,
            reconstructed_per_sec=(
                completed / uptime if uptime > 0 and completed > 0 else None
            ),
            shed_policy=self.shed_policy,
            queue_drops=sum(s.queue_drops for s in shard_snaps),
            queue_rejects=sum(s.queue_rejects for s in shard_snaps),
            patient_sheds=sum(s.patient_sheds for s in shard_snaps),
            shed_frames=sum(s.shed_frames for s in shard_snaps),
            queue_high_water=max(
                (s.queue_high_water for s in shard_snaps), default=0
            ),
            late_drops=sum(s.late_drops for s in shard_snaps),
            duplicate_drops=sum(s.duplicate_drops for s in shard_snaps),
            concealed=sum(s.concealed for s in shard_snaps),
            cs_fallbacks=sum(s.cs_fallbacks for s in shard_snaps),
            latency_p50_s=rolling_percentile(latencies, 50.0),
            latency_p95_s=rolling_percentile(latencies, 95.0),
            latency_p99_s=rolling_percentile(latencies, 99.0),
            per_session=tuple(
                sess for s in shard_snaps for sess in s.per_session
            ),
            # Shards share the per-process PROBLEM_CACHE singleton, so the
            # cluster samples it once rather than summing per-shard views.
            recovery_cache=recovery_cache_stats(),
        )

    def balance(self) -> Dict[str, Dict[str, int]]:
        """Per-shard load: sessions served and windows completed.

        The load-test artifact's ``per_shard`` section — a skewed hash
        split shows up here long before it shows up in tail latency.
        """
        return {
            name: {
                "sessions": len(gw.sessions),
                "windows_completed": sum(
                    s.windows_completed for s in gw.sessions
                ),
            }
            for name, gw in self._shards.items()
        }
