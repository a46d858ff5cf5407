"""Tests of the synthetic MIT-BIH-like database."""

import numpy as np
import pytest

from repro.signals.database import (
    MITBIH_RECORD_NAMES,
    SyntheticDatabase,
    interleave_playback,
    iter_record_chunks,
    load_database,
    load_record,
    record_profile,
)


class TestRecordNames:
    def test_48_records_like_mitbih(self):
        assert len(MITBIH_RECORD_NAMES) == 48
        assert len(set(MITBIH_RECORD_NAMES)) == 48

    def test_known_names_present(self):
        for name in ("100", "117", "208", "234"):
            assert name in MITBIH_RECORD_NAMES


class TestRecordProfile:
    def test_deterministic(self):
        assert record_profile("100") == record_profile("100")

    def test_profiles_differ_across_records(self):
        hrs = {record_profile(n).mean_hr_bpm for n in MITBIH_RECORD_NAMES}
        assert len(hrs) == 48

    def test_parameter_ranges(self):
        for name in MITBIH_RECORD_NAMES:
            p = record_profile(name)
            assert 55.0 <= p.mean_hr_bpm <= 95.0
            assert 0.6 <= p.amplitude_mv <= 1.5
            assert 0.0 <= p.pvc_probability <= 0.15

    def test_some_records_have_pvcs(self):
        with_pvc = [
            n for n in MITBIH_RECORD_NAMES if record_profile(n).pvc_probability > 0
        ]
        assert 5 <= len(with_pvc) <= 30

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            record_profile("999")


class TestLoadRecord:
    def test_header_matches_mitbih(self):
        rec = load_record("100", duration_s=5.0)
        assert rec.header.fs_hz == 360.0
        assert rec.header.resolution_bits == 11
        assert rec.header.adc_zero == 1024

    def test_duration(self):
        rec = load_record("101", duration_s=7.5)
        assert rec.duration_s == pytest.approx(7.5)

    def test_deterministic(self):
        a = load_record("103", duration_s=5.0)
        b = load_record("103", duration_s=5.0)
        assert np.array_equal(a.adu, b.adu)
        assert a.annotations == b.annotations

    def test_records_differ(self):
        a = load_record("100", duration_s=5.0)
        b = load_record("101", duration_s=5.0)
        assert not np.array_equal(a.adu, b.adu)

    def test_signal_in_plausible_adu_range(self):
        """Paper Fig. 2 plots raw samples around ~900-1250 ADU."""
        rec = load_record("100", duration_s=10.0)
        assert 600 < rec.adu.min() < 1100
        assert 1024 < rec.adu.max() < 1600

    def test_clean_flag_removes_noise(self):
        noisy = load_record("105", duration_s=5.0)
        clean = load_record("105", duration_s=5.0, clean=True)
        assert not np.array_equal(noisy.adu, clean.adu)
        # Clean record has visibly lower high-frequency energy.
        def hf(x):
            d = np.diff(x.astype(float))
            return float(np.mean(d**2))

        assert hf(clean.adu) < hf(noisy.adu)

    def test_annotations_mark_r_peaks(self):
        rec = load_record("100", duration_s=20.0, clean=True)
        assert len(rec.annotations) >= 10
        mv = rec.signal_mv()
        peak = float(np.max(np.abs(mv)))
        for ann in rec.annotations[2:-2]:
            window = mv[max(0, ann.sample - 15) : ann.sample + 15]
            assert float(np.max(np.abs(window))) > 0.4 * peak

    def test_pvc_records_annotate_v_beats(self):
        pvc_names = [
            n for n in MITBIH_RECORD_NAMES
            if record_profile(n).pvc_probability > 0.08
        ]
        rec = load_record(pvc_names[0], duration_s=60.0)
        symbols = {a.symbol for a in rec.annotations}
        assert "V" in symbols and "N" in symbols

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            load_record("100", duration_s=0.0)


class TestDatabase:
    def test_full_load(self):
        db = load_database(duration_s=2.0)
        assert len(db) == 48
        assert db.names == MITBIH_RECORD_NAMES

    def test_subset_and_lookup(self):
        db = load_database(["100", "200"], duration_s=2.0)
        assert len(db) == 2
        assert db["200"].name == "200"
        with pytest.raises(KeyError):
            db["101"]

    def test_total_duration(self):
        db = load_database(["100", "101"], duration_s=3.0)
        assert db.total_duration_s() == pytest.approx(6.0)

    def test_subset_method(self):
        db = load_database(["100", "101", "103"], duration_s=2.0)
        sub = db.subset(["103", "100"])
        assert sub.names == ("103", "100")

    def test_duplicate_names_rejected(self):
        rec = load_record("100", duration_s=2.0)
        with pytest.raises(ValueError):
            SyntheticDatabase((rec, rec))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SyntheticDatabase(())


class TestChunkedPlayback:
    def test_chunks_reassemble_record(self):
        rec = load_record("100", duration_s=3.0)
        chunks = list(iter_record_chunks(rec, 181))
        assert all(c.ndim == 1 for c in chunks)
        assert all(len(c) == 181 for c in chunks[:-1])
        assert np.array_equal(np.concatenate(chunks), rec.adu)

    def test_exact_multiple_has_no_short_tail(self):
        rec = load_record("100", duration_s=3.0)
        size = len(rec) // 4
        rec4 = load_record("100", duration_s=3.0)
        chunks = list(iter_record_chunks(rec4, size))
        # 4 full chunks plus (possibly) one short remainder.
        assert all(len(c) == size for c in chunks[:4])
        assert np.array_equal(np.concatenate(chunks), rec.adu)

    def test_bad_chunk_size_rejected(self):
        rec = load_record("100", duration_s=2.0)
        with pytest.raises(ValueError):
            next(iter_record_chunks(rec, 0))

    def test_deterministic(self):
        rec = load_record("100", duration_s=2.0)
        a = [c.copy() for c in iter_record_chunks(rec, 97)]
        b = list(iter_record_chunks(rec, 97))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert len(a) == len(b)


class TestInterleavePlayback:
    def test_round_robin_order(self):
        recs = [load_record(n, duration_s=2.0) for n in ("100", "101")]
        names = [name for name, _ in interleave_playback(recs, 500)]
        # Equal-length records alternate strictly.
        assert names[:4] == ["100", "101", "100", "101"]

    def test_streams_reassemble_per_record(self):
        recs = [load_record(n, duration_s=2.0) for n in ("100", "101", "103")]
        per_name = {rec.name: [] for rec in recs}
        for name, chunk in interleave_playback(recs, 113):
            per_name[name].append(chunk)
        for rec in recs:
            assert np.array_equal(np.concatenate(per_name[rec.name]), rec.adu)

    def test_shorter_record_drops_out(self):
        long = load_record("100", duration_s=4.0)
        short = load_record("101", duration_s=2.0)
        names = [name for name, _ in interleave_playback([long, short], 360)]
        assert names.count("101") < names.count("100")
        # Once the short record is exhausted only the long one remains.
        last_101 = max(i for i, n in enumerate(names) if n == "101")
        assert set(names[last_101 + 1:]) == {"100"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            next(interleave_playback([], 100))


class TestBeatsLoopOracle:
    """Per-sample database synthesis must equal the vectorized path."""

    @pytest.mark.parametrize("name", ["100", "119"])
    @pytest.mark.parametrize("lead", ["MLII", "V5"])
    def test_bit_identical(self, name, lead):
        from repro.signals.database import _synthesize_with_beats
        from tests.signals.synth_oracles import synthesize_with_beats_loop

        profile = record_profile(name)
        fast_z, fast_ann = _synthesize_with_beats(profile, 2.0, 360.0, lead)
        slow_z, slow_ann = synthesize_with_beats_loop(profile, 2.0, 360.0, lead)
        assert np.array_equal(fast_z, slow_z)
        assert fast_ann == slow_ann


class TestRecordCacheLru:
    """Pins the _load_record_cached LRU semantics its docstring promises."""

    def test_cache_hit_returns_same_object(self):
        a = load_record("100", duration_s=1.27)
        b = load_record("100", duration_s=1.27)
        assert a is b

    def test_distinct_parameters_distinct_entries(self):
        a = load_record("100", duration_s=1.27)
        b = load_record("100", duration_s=1.27, clean=True)
        assert a is not b

    def test_eviction_preserves_record_bytes(self):
        # More than 64 distinct parameter tuples forces eviction of the
        # first entry; re-synthesis must be byte-identical (the record is
        # a pure function of its parameters).
        first = load_record("100", duration_s=1.31)
        adu = first.adu.copy()
        annotations = list(first.annotations)
        for i in range(70):
            load_record("101", duration_s=1.0 + 0.01 * i)
        again = load_record("100", duration_s=1.31)
        assert again is not first  # evicted, so freshly synthesized
        assert np.array_equal(again.adu, adu)
        assert list(again.annotations) == annotations
        assert again.header == first.header
