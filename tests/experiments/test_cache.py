"""Tests of the disk-backed sweep cache."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import FrontEndConfig
from repro.core.pipeline import run_record
from repro.experiments import cache as cache_module
from repro.experiments.cache import SweepCache, cache_from_env, config_fingerprint
from repro.experiments.runner import ExperimentScale, sweep_compression_ratios
from repro.recovery.bsbl import BsblSettings
from repro.recovery.pdhg import PdhgSettings
from repro.signals.database import load_record

FAST = FrontEndConfig(
    window_len=128,
    n_measurements=48,
    solver=PdhgSettings(max_iter=400, tol=5e-4),
)


class TestFingerprint:
    def test_stable(self):
        assert config_fingerprint(FAST) == config_fingerprint(FAST)

    def test_sensitive_to_every_knob(self):
        base = config_fingerprint(FAST)
        assert config_fingerprint(FAST.with_measurements(32)) != base
        assert config_fingerprint(FAST.with_lowres_bits(5)) != base
        slower = FrontEndConfig(
            window_len=128,
            n_measurements=48,
            solver=PdhgSettings(max_iter=500, tol=5e-4),
        )
        assert config_fingerprint(slower) != base

    def test_sensitive_to_bsbl_settings(self):
        """A BSBL sweep re-run under other EM settings must miss."""
        longer = dataclasses.replace(
            FAST, bsbl=BsblSettings(max_iter=2 * FAST.bsbl.max_iter)
        )
        assert config_fingerprint(longer) != config_fingerprint(FAST)

    def test_sensitive_to_decoder_revision(self, monkeypatch):
        """A new decoder with the same config must not be served the old
        decoder's outcomes."""
        base = config_fingerprint(FAST)
        monkeypatch.setattr(
            cache_module, "DECODER_REVISION", cache_module.DECODER_REVISION + 1
        )
        assert config_fingerprint(FAST) != base


class TestSweepCache:
    def _outcome(self):
        rec = load_record("100", duration_s=5.0)
        return run_record(rec, FAST, max_windows=1)

    def test_miss_then_hit(self, tmp_path):
        cache = SweepCache(tmp_path)
        calls = []

        def runner():
            calls.append(1)
            return self._outcome()

        first = cache.get_or_run("100", 5.0, FAST, "hybrid", 1, runner)
        second = cache.get_or_run("100", 5.0, FAST, "hybrid", 1, runner)
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert second.mean_snr_db == pytest.approx(first.mean_snr_db)
        assert second.windows[0].budget.total_bits == first.windows[0].budget.total_bits

    def test_roundtrip_preserves_all_fields(self, tmp_path):
        cache = SweepCache(tmp_path)
        original = self._outcome()
        cached = cache.get_or_run("100", 5.0, FAST, "hybrid", 1, lambda: original)
        reloaded = cache.get_or_run("100", 5.0, FAST, "hybrid", 1, lambda: 1 / 0)
        for a, b in zip(original.windows, reloaded.windows):
            assert a.prd_percent == b.prd_percent
            assert a.snr_db == b.snr_db
            assert a.solver_iterations == b.solver_iterations
            assert a.budget == b.budget

    def test_different_configs_do_not_collide(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.get_or_run("100", 5.0, FAST, "hybrid", 1, self._outcome)
        calls = []

        def runner():
            calls.append(1)
            rec = load_record("100", duration_s=5.0)
            return run_record(rec, FAST.with_measurements(32), max_windows=1)

        cache.get_or_run("100", 5.0, FAST.with_measurements(32), "hybrid", 1, runner)
        assert calls  # second config was computed, not served from cache

    def test_corrupt_file_recomputed(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.get_or_run("100", 5.0, FAST, "hybrid", 1, self._outcome)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        recomputed = cache.get_or_run("100", 5.0, FAST, "hybrid", 1, self._outcome)
        assert recomputed.record_name == "100"

    def test_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.get_or_run("100", 5.0, FAST, "hybrid", 1, self._outcome)
        assert cache.clear() == 1
        assert list(tmp_path.glob("*.json")) == []


class TestAtomicWrites:
    def _outcome(self):
        rec = load_record("100", duration_s=5.0)
        return run_record(rec, FAST, max_windows=1)

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = SweepCache(tmp_path)
        path = cache.store("100", 5.0, FAST, "hybrid", 1, self._outcome())
        assert path.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_store_replaces_corrupt_file_atomically(self, tmp_path):
        cache = SweepCache(tmp_path)
        outcome = self._outcome()
        path = cache.store("100", 5.0, FAST, "hybrid", 1, outcome)
        path.write_text("{truncated by a crashed worker")
        cache.store("100", 5.0, FAST, "hybrid", 1, outcome)
        reloaded = cache.load("100", 5.0, FAST, "hybrid", 1)
        assert reloaded is not None
        assert reloaded.windows == outcome.windows

    def test_failed_serialization_cleans_up(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path)

        def boom(*args, **kwargs):
            raise RuntimeError("serializer died")

        monkeypatch.setattr(json, "dumps", boom)
        with pytest.raises(RuntimeError):
            cache.store("100", 5.0, FAST, "hybrid", 1, self._outcome())
        assert list(tmp_path.iterdir()) == []


class TestStageHook:
    """Cache behaviour under the engine's lookup/store stage hook."""

    SCALE = ExperimentScale(record_names=("100",), duration_s=5.0, max_windows=1)

    def _sweep(self, cache):
        return sweep_compression_ratios(
            FAST, cr_values=(75.0,), methods=("hybrid",), scale=self.SCALE,
            cache=cache,
        )

    def test_miss_then_hit_through_engine(self, tmp_path):
        cache = SweepCache(tmp_path)
        first = self._sweep(cache)
        assert cache.misses == 1 and cache.hits == 0
        second = self._sweep(cache)
        assert cache.hits == 1
        assert second[0].outcomes == first[0].outcomes

    def test_hit_skips_scheduling_entirely(self, tmp_path):
        from repro.runtime.engine import ExecutionEngine, RecordJob

        cache = SweepCache(tmp_path)
        rec = load_record("100", duration_s=5.0)
        job = RecordJob(record=rec, config=FAST, method="hybrid", max_windows=1)
        computed = ExecutionEngine(hooks=[cache.stage_hook()]).run_job(job)

        class _Exploding:
            name = "exploding"
            effective_workers = 1

            def run_tasks(self, tasks):
                raise AssertionError("hit must not reach the executor")

        again = ExecutionEngine(
            executor=_Exploding(), hooks=[cache.stage_hook()]
        ).run_job(job)
        assert again.windows == computed.windows

    def test_corrupted_file_recovers_through_hook(self, tmp_path):
        cache = SweepCache(tmp_path)
        first = self._sweep(cache)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        recomputed = self._sweep(cache)
        assert recomputed[0].outcomes == first[0].outcomes
        # The corrupt file was replaced by a fresh, loadable one.
        final = self._sweep(cache)
        assert final[0].outcomes == first[0].outcomes
        assert cache.hits == 1

    def test_explicit_false_disables_env_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        self._sweep(False)
        env_dir = tmp_path / "env-cache"
        assert not env_dir.exists() or list(env_dir.glob("*.json")) == []


class TestIntegration:
    def test_cached_sweep_matches_uncached(self, tmp_path):
        scale = ExperimentScale(record_names=("100",), duration_s=5.0, max_windows=1)
        plain = sweep_compression_ratios(
            FAST, cr_values=(75.0,), methods=("hybrid",), scale=scale
        )
        cache = SweepCache(tmp_path)
        cached = sweep_compression_ratios(
            FAST, cr_values=(75.0,), methods=("hybrid",), scale=scale, cache=cache
        )
        again = sweep_compression_ratios(
            FAST, cr_values=(75.0,), methods=("hybrid",), scale=scale, cache=cache
        )
        assert cached[0].mean_snr_db == pytest.approx(plain[0].mean_snr_db)
        assert again[0].mean_snr_db == pytest.approx(plain[0].mean_snr_db)
        assert cache.hits >= 1

    def test_cache_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cache_from_env() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = cache_from_env()
        assert cache is not None
        assert cache.directory.exists()
