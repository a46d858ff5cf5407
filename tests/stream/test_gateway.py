"""Gateway tests: routing, backpressure bounds, telemetry, loss handling."""

import json

import numpy as np
import pytest

from repro.core.channel import LossyLink
from repro.runtime.executors import ParallelExecutor
from repro.signals.database import interleave_playback, load_record
from repro.stream.gateway import BoundedQueue, StreamGateway
from repro.stream.ingest import IngestSession, StreamFrame
from repro.stream.loadgen import LoadScenario


class FakeClock:
    """Deterministic monotonic clock advanced by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestBoundedQueue:
    def test_fifo_order(self):
        q = BoundedQueue(4)
        for i in range(3):
            assert q.push(i)
        assert [q.popleft() for _ in range(3)] == [0, 1, 2]

    def test_overflow_drops_oldest(self):
        q = BoundedQueue(2)
        q.push("a")
        q.push("b")
        assert not q.push("c")
        assert q.drops == 1
        assert [q.popleft(), q.popleft()] == ["b", "c"]

    def test_high_water_tracks_peak(self):
        q = BoundedQueue(8)
        for i in range(5):
            q.push(i)
        q.popleft()
        assert q.high_water == 5
        assert len(q) == 4

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)


def _frames_for(name, config, duration_s=4.0):
    record = load_record(name, duration_s=duration_s)
    return IngestSession(name, config).push(record.adu)


class TestSheddingPolicies:
    def test_drop_newest_rejects_arrival(self):
        q = BoundedQueue(2, policy="drop-newest")
        q.push("a")
        q.push("b")
        assert not q.push("c")
        assert q.rejects == 1 and q.drops == 0 and q.sheds == 0
        assert [q.popleft(), q.popleft()] == ["a", "b"]  # backlog untouched

    def test_shed_patient_clears_backlog_and_accepts(self):
        q = BoundedQueue(3, policy="shed-patient")
        for item in "abc":
            q.push(item)
        assert not q.push("d")
        assert q.sheds == 1 and q.shed_frames == 3
        assert len(q) == 1 and q.popleft() == "d"

    def test_lost_sums_all_policies(self):
        q = BoundedQueue(1, policy="drop-oldest")
        q.push("a")
        q.push("b")
        assert q.lost == q.drops == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            BoundedQueue(2, policy="drop-random")
        with pytest.raises(ValueError):
            StreamGateway(shed_policy="drop-random")

    @pytest.mark.parametrize(
        "policy,field",
        [
            ("drop-oldest", "queue_drops"),
            ("drop-newest", "queue_rejects"),
            ("shed-patient", "shed_frames"),
        ],
    )
    def test_only_active_policy_counter_grows(
        self, stream_config, policy, field
    ):
        gateway = StreamGateway(
            queue_capacity=2, shed_policy=policy, clock=FakeClock()
        )
        gateway.open_session("100", stream_config)
        for frame in _frames_for("100", stream_config)[:5]:
            gateway.submit(frame)
        snap = gateway.snapshot()
        counters = {
            "queue_drops": snap.queue_drops,
            "queue_rejects": snap.queue_rejects,
            "shed_frames": snap.shed_frames,
        }
        assert counters.pop(field) > 0
        assert all(v == 0 for v in counters.values())
        assert snap.shed_policy == policy
        assert snap.frames_lost == snap.to_dict()[field]

    def test_drop_newest_preserves_oldest_windows(self, stream_config):
        gateway = StreamGateway(
            queue_capacity=2, shed_policy="drop-newest", clock=FakeClock()
        )
        gateway.open_session("100", stream_config)
        frames = _frames_for("100", stream_config)
        for frame in frames[:5]:
            gateway.submit(frame)
        gateway.finish()
        session = gateway.session("100")
        # The first two windows survive; the later arrivals were refused
        # and never become gaps *before* them.
        assert session.solved == 2
        assert session.concealed == 0

    def test_shed_patient_sacrifices_backlog_for_freshness(
        self, stream_config
    ):
        gateway = StreamGateway(
            queue_capacity=2, shed_policy="shed-patient", clock=FakeClock()
        )
        gateway.open_session("100", stream_config)
        frames = _frames_for("100", stream_config)[:5]
        for frame in frames:
            gateway.submit(frame)
        gateway.finish()
        session = gateway.session("100")
        snap = gateway.snapshot()
        assert snap.patient_sheds >= 1
        # The newest window always survives a shed.
        assert session.next_window == frames[-1].window_index + 1


class TestEmptySessionSnapshots:
    """Percentile/rate fields must be null — never 0.0, never a crash —
    for sessions and gateways that completed zero windows."""

    def test_idle_gateway_serializes_nulls(self, stream_config):
        gateway = StreamGateway(clock=FakeClock())
        gateway.open_session("100", stream_config)
        snap = gateway.snapshot()
        assert snap.reconstructed_per_sec is None
        assert snap.latency_p50_s is None
        assert snap.latency_p95_s is None
        assert snap.latency_p99_s is None
        data = json.loads(json.dumps(snap.to_dict(), allow_nan=False))
        assert data["reconstructed_per_sec"] is None
        assert data["latency_p99_s"] is None
        session = data["per_session"][0]
        assert session["rolling_prd_percent"] is None
        assert session["prd_p95_percent"] is None
        assert session["rolling_snr_db"] is None

    def test_zero_uptime_rate_is_null_not_division_error(self, stream_config):
        gateway = StreamGateway(clock=FakeClock())  # clock never advances
        gateway.open_session("100", stream_config)
        for frame in _frames_for("100", stream_config)[:2]:
            gateway.submit(frame)
        gateway.finish()
        snap = gateway.snapshot()
        assert snap.windows_completed == 2
        assert snap.uptime_s == 0.0
        assert snap.reconstructed_per_sec is None  # no rate without uptime

    def test_unscored_session_percentiles_are_null(self, stream_config):
        # Frames stripped of their telemetry reference: windows solve
        # but are never scored, so PRD stats must stay null.
        gateway = StreamGateway(clock=FakeClock())
        gateway.open_session("100", stream_config)
        for frame in _frames_for("100", stream_config)[:2]:
            gateway.submit(
                StreamFrame(frame.patient_id, frame.packet, frame.crc, None)
            )
        gateway.finish()
        snap = gateway.snapshot().per_session[0]
        assert snap.solved == 2
        assert snap.rolling_prd_percent is None
        assert snap.prd_p95_percent is None

    def test_scored_session_reports_prd_p95(self, stream_config):
        gateway = StreamGateway(clock=FakeClock())
        gateway.open_session("100", stream_config)
        for frame in _frames_for("100", stream_config)[:3]:
            gateway.submit(frame)
        gateway.finish()
        snap = gateway.snapshot().per_session[0]
        assert snap.prd_p95_percent is not None
        assert snap.prd_p95_percent >= snap.rolling_prd_percent * 0.99


class TestGatewayBasics:
    def test_unknown_patient_rejected(self, stream_config):
        gateway = StreamGateway()
        frame = _frames_for("100", stream_config)[0]
        with pytest.raises(KeyError):
            gateway.submit(frame)

    def test_duplicate_session_rejected(self, stream_config):
        gateway = StreamGateway()
        gateway.open_session("100", stream_config)
        with pytest.raises(ValueError):
            gateway.open_session("100", stream_config)

    def test_lossless_run_solves_everything(self, stream_config):
        clock = FakeClock()
        gateway = StreamGateway(clock=clock)
        gateway.open_session("100", stream_config)
        frames = _frames_for("100", stream_config)
        for frame in frames:
            assert gateway.submit(frame)
            clock.now += 0.01
        completed = gateway.finish()
        assert completed == len(frames)
        session = gateway.session("100")
        assert session.solved == len(frames)
        assert session.concealed == 0
        snap = gateway.snapshot()
        assert snap.windows_completed == len(frames)
        assert snap.windows_inflight == 0
        assert snap.queue_drops == 0

    def test_fake_clock_drives_latency_and_rate(self, stream_config):
        clock = FakeClock()
        gateway = StreamGateway(clock=clock)
        gateway.open_session("100", stream_config)
        frames = _frames_for("100", stream_config)[:4]
        for frame in frames:
            gateway.submit(frame)
        clock.now = 2.0  # all frames waited exactly 2 s before the poll
        gateway.poll()
        snap = gateway.snapshot()
        assert snap.latency_p50_s == pytest.approx(2.0)
        assert snap.latency_p95_s == pytest.approx(2.0)
        assert snap.uptime_s == pytest.approx(2.0)
        assert snap.reconstructed_per_sec == pytest.approx(4 / 2.0)

    def test_queue_overflow_counts_drops(self, stream_config):
        gateway = StreamGateway(queue_capacity=2, clock=FakeClock())
        gateway.open_session("100", stream_config)
        frames = _frames_for("100", stream_config)
        kept = [gateway.submit(f) for f in frames[:5]]
        assert kept == [True, True, False, False, False]
        snap = gateway.snapshot()
        assert snap.queue_drops == 3
        assert snap.queue_high_water == 2
        gateway.finish()
        # The three evicted windows become sequence gaps -> concealed.
        session = gateway.session("100")
        assert session.solved == 2
        assert session.concealed == 3


class TestMultiPatientLossyRun:
    """The acceptance scenario: sustained 10% erasure, bounded memory."""

    @pytest.fixture(scope="class")
    def outcome(self, stream_config):
        names = ("100", "101", "103")
        records = [load_record(n, duration_s=4.0) for n in names]
        encoders = {n: IngestSession(n, stream_config) for n in names}
        links = {
            n: LossyLink(packet_erasure_rate=0.1, seed=7 + i)
            for i, n in enumerate(names)
        }
        clock = FakeClock()
        gateway = StreamGateway(queue_capacity=16, clock=clock)
        for n in names:
            gateway.open_session(n, stream_config)
        sent = erased = 0
        for i, (name, chunk) in enumerate(
            interleave_playback(records, 181)
        ):
            clock.now += 0.01
            for frame in encoders[name].push(chunk):
                impaired = links[name].transmit(frame.packet)
                sent += 1
                if impaired is None:
                    erased += 1
                    continue
                gateway.submit(
                    StreamFrame(name, impaired, frame.crc, frame.reference)
                )
            if i % 4 == 0:
                gateway.poll()
        gateway.finish()
        return gateway, sent, erased

    def test_erasures_actually_happened(self, outcome):
        _, sent, erased = outcome
        assert sent >= 30
        assert 0 < erased < sent // 2

    def test_memory_stays_bounded(self, outcome, stream_config):
        gateway, _, _ = outcome
        snap = gateway.snapshot()
        assert 0 < snap.queue_high_water <= gateway.queue_capacity
        for session in gateway.sessions:
            assert len(session.ring) <= 8 * stream_config.window_len
            assert session.pending_reorder == 0

    def test_counters_are_consistent(self, outcome):
        gateway, sent, erased = outcome
        snap = gateway.snapshot()
        solved = sum(s.solved for s in gateway.sessions)
        assert solved + snap.concealed == snap.windows_completed
        assert solved == sent - erased  # every delivered frame was solved
        assert snap.windows_inflight == 0
        assert snap.late_drops == 0 and snap.duplicate_drops == 0

    def test_interior_erasures_concealed(self, outcome):
        # Trailing erasures are unknowable; every *interior* gap must be.
        gateway, _, _ = outcome
        for session in gateway.sessions:
            assert session.windows_completed == session.next_window
        snap = gateway.snapshot()
        assert snap.concealed > 0

    def test_snapshot_is_strict_json(self, outcome):
        gateway, _, _ = outcome
        text = json.dumps(gateway.snapshot().to_dict(), allow_nan=False)
        data = json.loads(text)
        assert data["schema"] == "repro-stream-snapshot/v1"
        assert data["sessions"] == 3
        assert len(data["per_session"]) == 3
        assert "NaN" not in text and "Infinity" not in text

    def test_summary_line_mentions_key_counters(self, outcome):
        gateway, _, _ = outcome
        line = gateway.snapshot().summary_line()
        assert "sessions=3" in line
        assert "concealed=" in line


class TestExecutorEquivalence:
    def test_parallel_gateway_matches_serial(self, stream_config):
        def run(executor):
            gateway = StreamGateway(executor=executor, clock=FakeClock())
            gateway.open_session("100", stream_config)
            for frame in _frames_for("100", stream_config, duration_s=3.0):
                gateway.submit(frame)
            gateway.finish()
            return gateway.session("100").ring.read()

        serial = run(None)
        parallel = run(ParallelExecutor(workers=2))
        assert np.array_equal(serial, parallel)


class TestScenarioDriver:
    def test_scenario_validation(self, stream_config):
        with pytest.raises(ValueError):
            LoadScenario(patients=0, config=stream_config)
        with pytest.raises(ValueError):
            LoadScenario(duration_s=0, config=stream_config)
        with pytest.raises(ValueError):
            LoadScenario(chunk_size=0, config=stream_config)
