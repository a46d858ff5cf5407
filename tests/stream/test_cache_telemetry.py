"""Recovery-cache telemetry on gateway/cluster snapshots.

Every snapshot samples the process-wide recovery caches
(``PROBLEM_CACHE`` hit rates and occupancy, link memo sizes) so cache
effectiveness is visible in live telemetry, not just in benchmark
artifacts.  The cache is a per-process
singleton, so the cluster snapshot must carry *one* sample — never a
per-shard sum of the same counters.
"""

import json

from repro.stream.cluster import ShardedGateway
from repro.stream.gateway import StreamGateway
from repro.stream.metrics import GatewaySnapshot


class TestGatewayCacheTelemetry:
    def test_snapshot_carries_cache_stats(self, stream_config):
        gateway = StreamGateway()
        gateway.open_session("100", stream_config)
        snap = gateway.snapshot()
        stats = snap.recovery_cache
        assert stats is not None
        for key in (
            "size",
            "maxsize",
            "hits",
            "misses",
            "hit_rate",
            "link_cache_size",
        ):
            assert key in stats

    def test_to_dict_and_json_round_trip(self, stream_config):
        gateway = StreamGateway()
        gateway.open_session("100", stream_config)
        snap = gateway.snapshot()
        payload = snap.to_dict()
        assert payload["recovery_cache"] == snap.recovery_cache
        parsed = json.loads(snap.to_json())
        assert parsed["recovery_cache"]["maxsize"] >= 1

    def test_default_is_none_for_hand_built_snapshots(self):
        snap = GatewaySnapshot(
            uptime_s=0.0,
            sessions=0,
            windows_inflight=0,
            windows_completed=0,
            reconstructed_per_sec=None,
            queue_drops=0,
            queue_high_water=0,
            late_drops=0,
            duplicate_drops=0,
            concealed=0,
            cs_fallbacks=0,
            latency_p50_s=None,
            latency_p95_s=None,
        )
        assert snap.recovery_cache is None
        assert snap.to_dict()["recovery_cache"] is None


class TestClusterCacheTelemetry:
    def test_cluster_samples_the_singleton_once(self, stream_config):
        cluster = ShardedGateway(2)
        cluster.open_session("100", stream_config)
        cluster.open_session("101", stream_config)
        snap = cluster.snapshot()
        assert snap.recovery_cache is not None
        # One process-wide sample: the cluster value equals any single
        # shard's view of the same singleton (no per-shard summing).
        shard_view = next(
            iter(cluster.shard_snapshots().values())
        ).recovery_cache
        assert snap.recovery_cache["hits"] == shard_view["hits"]
        assert snap.recovery_cache["misses"] == shard_view["misses"]
