"""Streaming ingest tests — the bit-identity acceptance criterion lives here."""

import numpy as np
import pytest

from repro.core.channel import payload_crc
from repro.core.codebooks import default_codebook
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.runtime.task import CodebookSpec
from repro.signals.database import iter_record_chunks
from repro.stream.ingest import IngestSession, codebook_spec_for


class TestCodebookSpecFor:
    def test_normal_needs_no_codebook(self, stream_config):
        assert codebook_spec_for(stream_config, "normal").kind == "none"

    def test_hybrid_defaults_to_trained_recipe(self, stream_config):
        spec = codebook_spec_for(stream_config, "hybrid")
        assert spec.kind == "default"
        assert spec.key.lowres_bits == stream_config.lowres_bits

    def test_explicit_codebook_inlined(self, stream_config, codebook_7bit):
        spec = codebook_spec_for(stream_config, "hybrid", codebook_7bit)
        assert spec.kind == "inline"

    def test_unknown_method_rejected(self, stream_config):
        with pytest.raises(ValueError):
            codebook_spec_for(stream_config, "turbo")

    def test_matches_batch_job_resolution(self, stream_config):
        # The root of bit-identity: the streaming spec equals the spec a
        # batch RecordJob would resolve for the same config.
        from repro.runtime.engine import RecordJob
        from repro.signals.database import load_record

        job = RecordJob(
            record=load_record("100", duration_s=2.0),
            config=stream_config,
            method="hybrid",
        )
        assert codebook_spec_for(stream_config, "hybrid") == (
            job.resolved_codebook_spec()
        )


class TestBitIdentity:
    """Chunked streaming output must be byte-equal to the batch encoder."""

    @pytest.mark.parametrize("chunk_size", [1, 37, 128, 181, 1000])
    def test_hybrid_chunking_is_byte_equal(
        self, stream_config, stream_record, chunk_size
    ):
        codebook = default_codebook(
            stream_config.lowres_bits, stream_config.acquisition_bits
        )
        batch = HybridFrontEnd(stream_config, codebook).process_record(
            stream_record
        )
        session = IngestSession(stream_record.name, stream_config)
        frames = []
        for chunk in iter_record_chunks(stream_record, chunk_size):
            frames.extend(session.push(chunk))
        assert len(frames) == len(batch)
        for frame, packet in zip(frames, batch):
            assert frame.packet.to_bytes() == packet.to_bytes()

    def test_normal_chunking_is_byte_equal(self, stream_config, stream_record):
        batch = NormalCsFrontEnd(stream_config).process_record(stream_record)
        session = IngestSession(
            stream_record.name, stream_config, method="normal"
        )
        frames = []
        for chunk in iter_record_chunks(stream_record, 73):
            frames.extend(session.push(chunk))
        assert [f.packet.to_bytes() for f in frames] == [
            p.to_bytes() for p in batch
        ]

    def test_batched_branch_equals_scalar_sessions(
        self, stream_config, stream_record
    ):
        # A large push completes many windows at once and takes the batch
        # engine; one-window pushes take the scalar path.  Both must emit
        # identical frames.
        batched = IngestSession(stream_record.name, stream_config)
        scalar = IngestSession(stream_record.name, stream_config)
        frames_batched = batched.push(stream_record.adu)
        n = stream_config.window_len
        frames_scalar = [
            frame
            for start in range(0, len(stream_record.adu), n)
            for frame in scalar.push(stream_record.adu[start : start + n])
        ]
        assert len(frames_batched) > 1
        assert [f.packet.to_bytes() for f in frames_batched] == [
            f.packet.to_bytes() for f in frames_scalar
        ]
        assert [f.crc for f in frames_batched] == [
            f.crc for f in frames_scalar
        ]

    def test_chunking_invariance(self, stream_config, stream_record):
        # Two arbitrary chunkings of the same stream emit identical frames.
        a = IngestSession(stream_record.name, stream_config)
        b = IngestSession(stream_record.name, stream_config)
        frames_a = [
            f
            for chunk in iter_record_chunks(stream_record, 53)
            for f in a.push(chunk)
        ]
        frames_b = [
            f
            for chunk in iter_record_chunks(stream_record, 499)
            for f in b.push(chunk)
        ]
        assert [f.packet.to_bytes() for f in frames_a] == [
            f.packet.to_bytes() for f in frames_b
        ]


class TestIngestSession:
    def test_window_indices_consecutive(self, stream_config, stream_record):
        session = IngestSession(stream_record.name, stream_config)
        frames = session.push(stream_record.adu)
        assert [f.window_index for f in frames] == list(range(len(frames)))

    def test_crc_matches_payload(self, stream_config, stream_record):
        session = IngestSession(stream_record.name, stream_config)
        for frame in session.push(stream_record.adu[:512]):
            assert frame.crc == payload_crc(frame.packet)

    def test_reference_is_the_raw_window(self, stream_config, stream_record):
        session = IngestSession(stream_record.name, stream_config)
        n = stream_config.window_len
        frames = session.push(stream_record.adu[: 2 * n])
        for i, frame in enumerate(frames):
            assert np.array_equal(
                frame.reference, stream_record.adu[i * n : (i + 1) * n]
            )

    def test_reference_optional(self, stream_config, stream_record):
        session = IngestSession(
            stream_record.name, stream_config, carry_reference=False
        )
        frames = session.push(stream_record.adu[:256])
        assert all(f.reference is None for f in frames)

    def test_pending_and_emitted_counters(self, stream_config, stream_record):
        session = IngestSession(stream_record.name, stream_config)
        n = stream_config.window_len
        assert session.push(stream_record.adu[: n - 1]) == []
        assert session.pending_samples == n - 1
        assert session.windows_emitted == 0
        frames = session.push(stream_record.adu[n - 1 : n + 1])
        assert len(frames) == 1
        assert session.pending_samples == 1
        assert session.windows_emitted == 1

    def test_flush_returns_partial(self, stream_config, stream_record):
        session = IngestSession(stream_record.name, stream_config)
        session.push(stream_record.adu[:100])
        tail = session.flush()
        assert np.array_equal(tail, stream_record.adu[:100])
        assert session.pending_samples == 0

    def test_float_samples_rejected(self, stream_config):
        session = IngestSession("x", stream_config)
        with pytest.raises(TypeError):
            session.push(np.zeros(16))

    def test_2d_samples_rejected(self, stream_config):
        session = IngestSession("x", stream_config)
        with pytest.raises(ValueError):
            session.push(np.zeros((4, 4), dtype=np.int64))

    def test_explicit_codebook_used(
        self, stream_config, stream_record, codebook_7bit
    ):
        session = IngestSession(
            stream_record.name, stream_config, codebook=codebook_7bit
        )
        assert session.codebook_spec == CodebookSpec.from_object(codebook_7bit)
        frames = session.push(stream_record.adu[:128])
        batch = HybridFrontEnd(stream_config, codebook_7bit).process_window(
            stream_record.adu[:128], 0
        )
        assert frames[0].packet.to_bytes() == batch.to_bytes()
