"""Tests of the deterministic load-test harness (repro.stream.loadgen)."""

import json

import pytest

from repro.core.channel import LossyLink
from repro.signals.database import iter_record_chunks, load_record
from repro.stream.gateway import SHEDDING_POLICIES
from repro.stream.ingest import IngestSession
from repro.stream.loadgen import (
    PHASE_SCRIPTS,
    LoadPhase,
    LoadScenario,
    StepClock,
    build_gateway,
    run_loadtest,
)


def _scenario(stream_config, **overrides):
    params = dict(
        patients=6,
        duration_s=1.5,
        config=stream_config,
        chunk_size=97,
        seed=11,
    )
    params.update(overrides)
    return LoadScenario(**params)


class TestStepClock:
    def test_advances_monotonically(self):
        clock = StepClock()
        assert clock() == 0.0
        clock.advance(0.25)
        clock.advance(0.25)
        assert clock() == pytest.approx(0.5)
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestScenarioValidation:
    def test_rejects_bad_parameters(self, stream_config):
        with pytest.raises(ValueError):
            _scenario(stream_config, patients=0)
        with pytest.raises(ValueError):
            _scenario(stream_config, shed_policy="drop-random")
        with pytest.raises(ValueError):
            _scenario(stream_config, phases=())
        with pytest.raises(ValueError):
            LoadPhase("bad", fraction=0.0)

    def test_patients_beyond_48_reuse_records(self, stream_config):
        scenario = _scenario(stream_config, patients=100)
        assert len(scenario.patient_ids()) == 100
        assert len(set(scenario.patient_ids())) == 100
        assert scenario.record_name_for(0) == scenario.record_name_for(48)

    def test_build_gateway_modes(self, stream_config):
        from repro.stream.cluster import ShardedGateway
        from repro.stream.gateway import StreamGateway

        scenario = _scenario(stream_config)
        single = build_gateway(scenario, StepClock(), shards=1)
        assert isinstance(single, StreamGateway)
        sharded = build_gateway(scenario, StepClock(), shards=3)
        assert isinstance(sharded, ShardedGateway)
        with pytest.raises(ValueError):
            build_gateway(scenario, StepClock(), shards=0)


class TestNominalRun:
    @pytest.fixture(scope="class")
    def payload(self, stream_config):
        return run_loadtest(_scenario(stream_config))

    def test_no_unexplained_loss_at_nominal_rate(self, payload):
        """The CI acceptance floor: steady traffic, zero frames lost."""
        assert payload["frames_erased"] == 0
        assert payload["frames_lost"] == 0
        assert payload["concealed"] == 0
        assert payload["windows_completed"] == payload["frames_delivered"]
        assert payload["windows_completed"] > 0

    def test_payload_is_strict_json_with_percentiles(self, payload):
        text = json.dumps(payload, allow_nan=False)
        data = json.loads(text)
        assert data["schema"] == "repro-bench-gateway/v1"
        assert data["latency_p50_s"] is not None
        assert data["latency_p99_s"] is not None
        assert data["latency_p50_s"] <= data["latency_p99_s"]
        assert data["frames_per_sec"] > 0
        assert data["per_shard"] is None  # single-process run
        assert data["scenario"]["phases"][0]["name"] == "nominal"

    def test_deterministic_modulo_wall_clock(self, payload, stream_config):
        again = run_loadtest(_scenario(stream_config))
        for key in (
            "frames_sent",
            "frames_delivered",
            "windows_completed",
            "latency_p50_s",
            "latency_p99_s",
            "concealed",
            "recovered_digest",
        ):
            assert again[key] == payload[key], key

    def test_sharded_run_is_identity_checked(self, payload, stream_config):
        sharded = run_loadtest(_scenario(stream_config), shards=2)
        assert sharded["recovered_digest"] == payload["recovered_digest"]
        assert sharded["per_shard"] is not None
        assert (
            sum(b["sessions"] for b in sharded["per_shard"].values())
            == payload["scenario"]["patients"]
        )


class TestLossyScript:
    @pytest.fixture(scope="class")
    def lossy(self, stream_config):
        progress = []
        payload = run_loadtest(
            _scenario(stream_config, duration_s=3.0, phases=PHASE_SCRIPTS["lossy"]),
            on_progress=progress.append,
        )
        return payload, progress

    def test_erasures_are_concealed(self, lossy):
        payload, progress = lossy
        assert payload["frames_erased"] > 0
        assert payload["frames_lost"] == 0
        assert payload["concealed"] > 0
        assert progress and all(line.startswith("[lossy]") for line in progress)

    def test_rolling_prd_per_patient(self, lossy):
        payload, _ = lossy
        prds = payload["rolling_prd_pct"]
        assert list(prds) == [f"p{i:04d}" for i in range(6)]
        assert all(0.0 < prd < 100.0 for prd in prds.values())

    def test_links_seeded_seed_plus_patient(self, lossy, stream_config):
        """Phase 0 seeds patient ``i``'s link with ``seed + i``."""
        payload, _ = lossy
        scenario = _scenario(stream_config, duration_s=3.0)
        erased = 0
        for i, pid in enumerate(scenario.patient_ids()):
            record = load_record(scenario.record_name_for(i), duration_s=3.0)
            link = LossyLink(packet_erasure_rate=0.1, seed=scenario.seed + i)
            encoder = IngestSession(pid, stream_config)
            for chunk in iter_record_chunks(record, scenario.chunk_size):
                for frame in encoder.push(chunk):
                    erased += link.transmit(frame.packet) is None
        assert payload["frames_erased"] == erased

    def test_deterministic_per_session_output(self, lossy, stream_config):
        payload, _ = lossy
        again = run_loadtest(
            _scenario(stream_config, duration_s=3.0, phases=PHASE_SCRIPTS["lossy"])
        )
        for key in (
            "frames_erased",
            "concealed",
            "latency_p99_s",
            "rolling_prd_pct",
            "recovered_digest",
        ):
            assert again[key] == payload[key], key


class TestScriptedPhases:
    def test_stress_script_exercises_loss_and_shedding(self, stream_config):
        payload = run_loadtest(
            _scenario(
                stream_config,
                duration_s=3.0,
                queue_capacity=2,
                phases=PHASE_SCRIPTS["stress"],
            )
        )
        by_name = {p["name"]: p for p in payload["per_phase"]}
        assert set(by_name) == {"nominal", "loss", "overload"}
        assert by_name["nominal"]["frames_erased"] == 0
        assert by_name["loss"]["frames_erased"] > 0
        # The poll-starved overload phase must overflow the tiny queue.
        assert payload["frames_lost"] > 0
        assert payload["concealed"] > 0

    def test_shed_policy_changes_who_pays(self, stream_config):
        def lost_counters(policy):
            payload = run_loadtest(
                _scenario(
                    stream_config,
                    duration_s=3.0,
                    queue_capacity=2,
                    shed_policy=policy,
                    phases=PHASE_SCRIPTS["stress"],
                )
            )
            return payload

        oldest = lost_counters("drop-oldest")
        newest = lost_counters("drop-newest")
        shed = lost_counters("shed-patient")
        assert oldest["queue_drops"] > 0 and oldest["shed_frames"] == 0
        assert newest["queue_rejects"] > 0 and newest["queue_drops"] == 0
        assert shed["patient_sheds"] > 0 and shed["queue_drops"] == 0

    @pytest.mark.parametrize("policy", SHEDDING_POLICIES)
    def test_sharded_identity_under_loss_and_overload(
        self, stream_config, policy
    ):
        """Shedding and concealment, not just lossless traffic, must come
        out the same whether one gateway or two wire-fed shards serve."""
        scenario = _scenario(
            stream_config,
            duration_s=3.0,
            queue_capacity=2,
            shed_policy=policy,
            phases=PHASE_SCRIPTS["stress"],
        )
        single = run_loadtest(scenario, shards=1)
        sharded = run_loadtest(scenario, shards=2)
        assert single["frames_lost"] > 0 and single["concealed"] > 0
        for key in (
            "recovered_digest",
            "frames_lost",
            "queue_drops",
            "queue_rejects",
            "patient_sheds",
            "shed_frames",
            "concealed",
        ):
            assert sharded[key] == single[key], key
