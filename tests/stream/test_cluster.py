"""Tests of the sharded gateway runtime (repro.stream.cluster).

Two pillars:

* placement — a pure function of the patient id that spreads sessions
  over every shard;
* serial-vs-sharded equivalence — a wire-fed cluster recovers
  byte-identical per-patient output with identical conceal/drop
  accounting to one big gateway fed the same frames.
"""

import pytest

from repro.signals.database import iter_record_chunks
from repro.stream.cluster import ShardedGateway, stable_hash
from repro.stream.gateway import StreamGateway
from repro.stream.ingest import IngestSession, StreamFrame
from repro.stream.loadgen import StepClock, recovered_digest


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("patient-7") == stable_hash("patient-7")

    def test_64_bit_range(self):
        for key in ("", "a", "patient-7", "x" * 100):
            assert 0 <= stable_hash(key) < 1 << 64


def _owners(cluster, config, keys):
    for key in keys:
        cluster.open_session(key, config)
    return [cluster.owner_of(key) for key in keys]


class TestPlacement:
    def test_placement_deterministic_for_fixed_topology(self, stream_config):
        keys = [f"p{i:04d}" for i in range(500)]
        a = _owners(ShardedGateway(3), stream_config, keys)
        b = _owners(ShardedGateway(3), stream_config, keys)
        assert a == b
        assert a == [f"shard-{stable_hash(k) % 3}" for k in keys]

    def test_every_shard_gets_keys(self, stream_config):
        keys = [f"p{i:04d}" for i in range(1000)]
        owners = set(_owners(ShardedGateway(4), stream_config, keys))
        assert owners == {"shard-0", "shard-1", "shard-2", "shard-3"}


def _drive(gateway, config, patient_ids, chunks, *, poll_every=4):
    """Replay the same chunk stream for every patient through a gateway."""
    encoders = {p: IngestSession(p, config) for p in patient_ids}
    for p in patient_ids:
        gateway.open_session(p, config)
    for r, chunk in enumerate(chunks):
        for p in patient_ids:
            for frame in encoders[p].push(chunk):
                gateway.submit(
                    StreamFrame(p, frame.packet, frame.crc, frame.reference)
                )
        if (r + 1) % poll_every == 0:
            gateway.poll()
    gateway.finish()


@pytest.fixture(scope="module")
def playback(stream_record):
    """Window-misaligned chunked playback shared by the cluster tests."""
    return list(iter_record_chunks(stream_record, 97))[:8]


@pytest.fixture(scope="module")
def serial_baseline(stream_config, playback):
    """Digest + snapshot of a single-process run over the shared stream."""
    pids = [f"p{i}" for i in range(6)]
    gateway = StreamGateway(clock=StepClock())
    _drive(gateway, stream_config, pids, playback)
    return pids, recovered_digest(gateway), gateway.snapshot()


class TestShardedEquivalence:
    def test_sharded_output_is_bit_identical(
        self, stream_config, playback, serial_baseline
    ):
        pids, digest, snap = serial_baseline
        cluster = ShardedGateway(3, clock=StepClock())
        _drive(cluster, stream_config, pids, playback)
        assert recovered_digest(cluster) == digest
        merged = cluster.snapshot()
        assert merged.windows_completed == snap.windows_completed
        assert merged.concealed == snap.concealed
        assert merged.cs_fallbacks == snap.cs_fallbacks
        assert merged.frames_lost == snap.frames_lost

    def test_sessions_partition_across_shards(
        self, stream_config, playback, serial_baseline
    ):
        pids, _, _ = serial_baseline
        cluster = ShardedGateway(3, clock=StepClock())
        _drive(cluster, stream_config, pids, playback)
        balance = cluster.balance()
        assert sum(b["sessions"] for b in balance.values()) == len(pids)
        for pid in pids:
            assert cluster.owner_of(pid) == f"shard-{stable_hash(pid) % 3}"
        per_session = {
            s.patient_id for shard in cluster.shard_snapshots().values()
            for s in shard.per_session
        }
        assert per_session == set(pids)

    def test_merged_snapshot_sums_and_latency_percentiles(
        self, stream_config, playback, serial_baseline
    ):
        pids, _, _ = serial_baseline
        cluster = ShardedGateway(2, clock=StepClock())
        _drive(cluster, stream_config, pids, playback)
        merged = cluster.snapshot()
        shards = cluster.shard_snapshots().values()
        assert merged.sessions == sum(s.sessions for s in shards)
        assert merged.windows_completed == sum(
            s.windows_completed for s in shards
        )
        assert len(merged.per_session) == len(pids)
        # Percentiles come from the union of shard samples, so the
        # merged p50 must lie within the per-shard extremes.
        p50s = [s.latency_p50_s for s in shards if s.latency_p50_s is not None]
        if p50s:
            assert merged.latency_p50_s is not None
            assert min(p50s) <= merged.latency_p50_s <= max(p50s)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedGateway(0)
        with pytest.raises(ValueError):
            ShardedGateway(2, shed_policy="drop-everything")
