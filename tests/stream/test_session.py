"""Receiver-session tests: reorder, concealment, fallback, bounded memory."""

import numpy as np
import pytest

from repro.core.channel import payload_crc
from repro.runtime import stages
from repro.runtime.task import WindowTask
from repro.signals.database import iter_record_chunks
from repro.stream.ingest import IngestSession, StreamFrame
from repro.stream.session import (
    PatientSession,
    RecoveryTask,
    SignalRing,
    execute_recovery_task,
)


@pytest.fixture(scope="module")
def frames(stream_config, stream_record):
    """The record's frame stream, encoded once for the whole module."""
    session = IngestSession(stream_record.name, stream_config)
    out = []
    for chunk in iter_record_chunks(stream_record, 181):
        out.extend(session.push(chunk))
    assert len(out) >= 8
    return out


def _complete(session, planned):
    """Resolve planned windows serially, mirroring the gateway loop."""
    modes = []
    for plan in planned:
        result = (
            execute_recovery_task(plan.task) if plan.task is not None else None
        )
        modes.append(session.apply(plan, result))
    return modes


class TestSignalRing:
    def test_read_before_wrap(self):
        ring = SignalRing(8)
        ring.extend(np.arange(5.0))
        assert len(ring) == 5
        assert np.array_equal(ring.read(), np.arange(5.0))

    def test_wraparound_keeps_newest(self):
        ring = SignalRing(8)
        ring.extend(np.arange(6.0))
        ring.extend(np.arange(6.0, 11.0))
        assert len(ring) == 8
        assert np.array_equal(ring.read(), np.arange(3.0, 11.0))
        assert ring.total_written == 11

    def test_oversized_chunk_keeps_tail(self):
        ring = SignalRing(4)
        ring.extend(np.arange(10.0))
        assert np.array_equal(ring.read(), np.arange(6.0, 10.0))

    def test_many_irregular_chunks(self):
        ring = SignalRing(16)
        data = np.arange(100.0)
        pos = 0
        for size in (3, 7, 1, 12, 5, 16, 2, 30, 9, 15):
            ring.extend(data[pos : pos + size])
            pos += size
        assert len(ring) == 16
        assert np.array_equal(ring.read(), data[pos - 16 : pos])

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SignalRing(0)


class TestInOrderFlow:
    def test_all_windows_solved(self, stream_config, frames):
        session = PatientSession("100", stream_config)
        modes = []
        for frame in frames:
            modes.extend(_complete(session, session.offer(frame, 0.0)))
        assert modes == ["hybrid"] * len(frames)
        assert session.solved == len(frames)
        assert session.concealed == 0
        assert session.windows_completed == len(frames)
        assert session.next_window == len(frames)

    def test_rolling_quality_populated(self, stream_config, frames):
        session = PatientSession("100", stream_config)
        for frame in frames[:3]:
            _complete(session, session.offer(frame, 0.0))
        snap = session.snapshot()
        assert snap.rolling_prd_percent is not None
        assert 0.0 < snap.rolling_prd_percent < 50.0
        assert snap.rolling_snr_db is not None

    def test_ring_stays_bounded(self, stream_config, frames):
        session = PatientSession("100", stream_config, ring_windows=2)
        for frame in frames:
            _complete(session, session.offer(frame, 0.0))
        assert len(session.ring) == 2 * stream_config.window_len
        assert session.ring.total_written == (
            len(frames) * stream_config.window_len
        )


class TestReordering:
    def test_swap_within_depth_reorders(self, stream_config, frames):
        session = PatientSession("100", stream_config, reorder_depth=4)
        assert session.offer(frames[1], 0.0) == []
        assert session.pending_reorder == 1
        planned = session.offer(frames[0], 0.0)
        assert [p.window_index for p in planned] == [0, 1]
        assert all(p.task is not None for p in planned)
        modes = _complete(session, planned)
        assert modes == ["hybrid", "hybrid"]

    def test_gap_beyond_depth_concealed(self, stream_config, frames):
        session = PatientSession("100", stream_config, reorder_depth=2)
        _complete(session, session.offer(frames[0], 0.0))
        # Window 3 runs 2 ahead of next=1, hitting the reorder horizon:
        # window 1 is declared lost.  Window 2 is still within the
        # horizon (it may yet arrive), so 3 stays held.
        planned = session.offer(frames[3], 0.0)
        assert [(p.window_index, p.task is None) for p in planned] == [
            (1, True),
        ]
        modes = _complete(session, planned)
        assert modes == ["concealed"]
        # Window 2 does arrive late-but-in-horizon: both it and 3 release.
        planned = session.offer(frames[2], 0.0)
        assert [(p.window_index, p.task is None) for p in planned] == [
            (2, False),
            (3, False),
        ]
        assert _complete(session, planned) == ["hybrid", "hybrid"]
        assert session.concealed == 1

    def test_concealment_is_zero_order_hold(self, stream_config, frames):
        session = PatientSession("100", stream_config, reorder_depth=1)
        _complete(session, session.offer(frames[0], 0.0))
        previous = session.ring.read().copy()
        planned = session.offer(frames[2], 0.0)  # window 1 lost
        _complete(session, planned)
        held = session.ring.read()[
            stream_config.window_len : 2 * stream_config.window_len
        ]
        assert np.array_equal(held, previous[-stream_config.window_len :])

    def test_cold_start_concealment_is_baseline(self, stream_config, frames):
        session = PatientSession("100", stream_config, reorder_depth=0)
        # First frame ever is window 1: window 0 is concealed with no
        # history, so the mid-scale baseline fills in.
        planned = session.offer(frames[1], 0.0)
        _complete(session, planned)
        center = float(1 << (stream_config.acquisition_bits - 1))
        baseline = session.ring.read()[: stream_config.window_len]
        assert np.all(baseline == center)

    def test_finish_flushes_trailing_gap(self, stream_config, frames):
        session = PatientSession("100", stream_config, reorder_depth=8)
        _complete(session, session.offer(frames[0], 0.0))
        assert session.offer(frames[2], 0.0) == []  # held: gap at 1
        planned = session.finish()
        assert [(p.window_index, p.task is None) for p in planned] == [
            (1, True),
            (2, False),
        ]
        _complete(session, planned)
        assert session.windows_completed == 3


class TestDropsAndFallback:
    def test_late_frame_dropped(self, stream_config, frames):
        session = PatientSession("100", stream_config)
        _complete(session, session.offer(frames[0], 0.0))
        assert session.offer(frames[0], 0.0) == []
        assert session.late_drops == 1
        assert session.solved == 1

    def test_duplicate_held_frame_dropped(self, stream_config, frames):
        session = PatientSession("100", stream_config)
        session.offer(frames[1], 0.0)
        assert session.offer(frames[1], 0.0) == []
        assert session.duplicate_drops == 1

    def test_wrong_patient_rejected(self, stream_config, frames):
        session = PatientSession("999", stream_config)
        with pytest.raises(ValueError):
            session.offer(frames[0], 0.0)

    def test_crc_mismatch_falls_back_to_cs(self, stream_config, frames):
        session = PatientSession("100", stream_config)
        frame = frames[0]
        bad = StreamFrame(
            patient_id=frame.patient_id,
            packet=frame.packet,
            crc=frame.crc ^ 0xDEAD,
            reference=frame.reference,
        )
        modes = _complete(session, session.offer(bad, 0.0))
        assert modes == ["cs-fallback"]
        assert session.cs_fallbacks == 1
        assert session.solved == 1

    def test_fallback_matches_crc_of_truth(self, stream_config, frames):
        # Sanity: an intact frame's recomputed CRC matches, so the full
        # hybrid path (not the fallback) runs.
        frame = frames[0]
        assert payload_crc(frame.packet) == frame.crc


class TestRecoveryTask:
    def test_task_validates_method(self, stream_config, frames):
        with pytest.raises(ValueError):
            RecoveryTask(
                patient_id="100",
                window_index=0,
                packet=frames[0].packet,
                crc=frames[0].crc,
                config=stream_config,
                method="turbo",
                codebook=PatientSession("100", stream_config).codebook_spec,
            )

    def test_unscored_when_no_reference(self, stream_config, frames):
        session = PatientSession("100", stream_config)
        frame = StreamFrame(
            patient_id="100",
            packet=frames[0].packet,
            crc=frames[0].crc,
            reference=None,
        )
        planned = session.offer(frame, 0.0)
        result = execute_recovery_task(planned[0].task)
        assert result.prd_percent is None
        assert result.snr_db is None
        assert result.mode == "hybrid"

    def test_result_is_scored_with_reference(self, stream_config, frames):
        session = PatientSession("100", stream_config)
        planned = session.offer(frames[0], 0.0)
        result = execute_recovery_task(planned[0].task)
        assert result.prd_percent is not None and result.prd_percent > 0
        assert result.snr_db is not None
        assert result.x_codes.shape == (stream_config.window_len,)


class TestStatelessDecode:
    def test_window_decodes_the_same_mid_stream_and_alone(
        self, stream_config, frames
    ):
        """A window is a pure function of its packet: decoding window 1
        after window 0 was applied, or in a fresh session that only ever
        sees window 1, gives the batch stage's bytes."""
        session = PatientSession("100", stream_config)
        _complete(session, session.offer(frames[0], 0.0))
        (planned,) = session.offer(frames[1], 0.1)
        mid_stream = execute_recovery_task(planned.task)

        fresh = PatientSession("100", stream_config, reorder_depth=0)
        concealed, alone_plan = fresh.offer(frames[1], 0.0)
        assert concealed.task is None and alone_plan.window_index == 1
        alone = execute_recovery_task(alone_plan.task)

        task = WindowTask(
            record_name="100",
            method="hybrid",
            window_index=1,
            codes=frames[1].reference,
            config=stream_config,
            codebook=session.codebook_spec,
            seed=0,
        )
        batch = stages.recover(frames[1].packet, task)
        assert mid_stream.mode == alone.mode == "hybrid"
        assert np.array_equal(mid_stream.x_codes, alone.x_codes)
        assert np.array_equal(alone.x_codes, batch.x_codes)

