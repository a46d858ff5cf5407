"""Disk-backed memoization of pipeline outcomes for large sweeps.

A full-scale Fig. 7 sweep is 48 records × 9 CRs × 2 methods of convex
solves; at ~0.1-1 s per window that is real wall-clock.  Every outcome is
a pure function of ``(record identity, config, method, window count)``
(tested by ``tests/integration/test_paper_invariants.py``), so results can
be cached on disk and sweeps resumed across processes.

The cache key hashes the full config (solver settings included),
:data:`DECODER_REVISION` and the record's identity; any parameter change
misses cleanly.  Storage is one small JSON file per outcome under the
cache directory — trivially inspectable and deletable.

Opt-in: pass a :class:`SweepCache` to
:func:`repro.experiments.runner.sweep_compression_ratios`, or set the
``REPRO_CACHE_DIR`` environment variable to enable it in benchmarks.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional

from repro.core.config import FrontEndConfig
from repro.core.outcomes import RecordOutcome, WindowOutcome
from repro.metrics.compression import CompressionBudget
from repro.runtime.engine import RecordJob, StageHook

__all__ = [
    "DECODER_REVISION",
    "config_fingerprint",
    "SweepCache",
    "SweepCacheHook",
    "cache_from_env",
]


# Revision of the decode arithmetic, hashed with the config.  A change to
# how a window is decoded that leaves the config alone (a new iteration, a
# new stopping rule) must bump it, or sweeps are served outcomes of the old
# decoder.  1: relaxed, primal-first PDHG.  2: block dual steps.
DECODER_REVISION = 2


def config_fingerprint(config: FrontEndConfig) -> str:
    """Stable short hash of every config field (solver settings included)
    and of :data:`DECODER_REVISION`."""
    payload = {
        "decoder_revision": DECODER_REVISION,
        "window_len": config.window_len,
        "n_measurements": config.n_measurements,
        "lowres_bits": config.lowres_bits,
        "acquisition_bits": config.acquisition_bits,
        "measurement_bits": config.measurement_bits,
        "basis_spec": config.basis_spec,
        "sensing": asdict(config.sensing),
        "solver": asdict(config.solver),
        "sigma_safety": config.sigma_safety,
        "bsbl": asdict(config.bsbl),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def _outcome_to_dict(outcome: RecordOutcome) -> dict:
    return {
        "record_name": outcome.record_name,
        "method": outcome.method,
        "windows": [
            {
                "window_index": w.window_index,
                "prd_percent": w.prd_percent,
                "snr_db": w.snr_db,
                "solver_iterations": w.solver_iterations,
                "solver_converged": w.solver_converged,
                "budget": {
                    "n_samples": w.budget.n_samples,
                    "original_bits": w.budget.original_bits,
                    "cs_bits": w.budget.cs_bits,
                    "lowres_bits": w.budget.lowres_bits,
                    "header_bits": w.budget.header_bits,
                },
            }
            for w in outcome.windows
        ],
    }


def _outcome_from_dict(data: dict) -> RecordOutcome:
    windows = tuple(
        WindowOutcome(
            window_index=w["window_index"],
            prd_percent=w["prd_percent"],
            snr_db=w["snr_db"],
            budget=CompressionBudget(**w["budget"]),
            solver_iterations=w["solver_iterations"],
            solver_converged=w["solver_converged"],
        )
        for w in data["windows"]
    )
    return RecordOutcome(
        record_name=data["record_name"],
        method=data["method"],
        windows=windows,
    )


class SweepCache:
    """File-per-outcome cache of :class:`RecordOutcome` values."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(
        self,
        record_name: str,
        duration_s: float,
        config: FrontEndConfig,
        method: str,
        max_windows: Optional[int],
    ) -> Path:
        key = (
            f"{record_name}-{duration_s:g}-{method}-"
            f"{max_windows if max_windows is not None else 'all'}-"
            f"{config_fingerprint(config)}"
        )
        return self.directory / f"{key}.json"

    def load(
        self,
        record_name: str,
        duration_s: float,
        config: FrontEndConfig,
        method: str,
        max_windows: Optional[int],
    ) -> Optional[RecordOutcome]:
        """The cached outcome, or None on a miss.

        A corrupt or truncated file is deleted and treated as a miss.
        """
        path = self._path(record_name, duration_s, config, method, max_windows)
        if path.exists():
            try:
                outcome = _outcome_from_dict(json.loads(path.read_text()))
                self.hits += 1
                return outcome
            except (ValueError, KeyError, TypeError):
                path.unlink(missing_ok=True)
        self.misses += 1
        return None

    def store(
        self,
        record_name: str,
        duration_s: float,
        config: FrontEndConfig,
        method: str,
        max_windows: Optional[int],
        outcome: RecordOutcome,
    ) -> Path:
        """Persist one outcome atomically; returns its cache path.

        The JSON is written to a temporary file in the cache directory
        and moved into place with :func:`os.replace`, so a concurrent
        reader (or a crashed parallel worker) can never observe a
        truncated outcome — it sees either the old file or the new one.
        """
        path = self._path(record_name, duration_s, config, method, max_windows)
        payload = json.dumps(_outcome_to_dict(outcome))
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.stem}.", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp_name)
            raise
        return path

    def get_or_run(
        self,
        record_name: str,
        duration_s: float,
        config: FrontEndConfig,
        method: str,
        max_windows: Optional[int],
        runner: Callable[[], RecordOutcome],
    ) -> RecordOutcome:
        """Return the cached outcome, or compute, persist and return it."""
        cached = self.load(record_name, duration_s, config, method, max_windows)
        if cached is not None:
            return cached
        outcome = runner()
        self.store(record_name, duration_s, config, method, max_windows, outcome)
        return outcome

    def stage_hook(self) -> "SweepCacheHook":
        """This cache as an engine stage hook (see :class:`SweepCacheHook`)."""
        return SweepCacheHook(self)

    def clear(self) -> int:
        """Delete every cached outcome; returns the number removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink()
            removed += 1
        return removed


class SweepCacheHook(StageHook):
    """Adapter exposing a :class:`SweepCache` as an engine stage hook.

    ``lookup`` hits make the :class:`~repro.runtime.engine.ExecutionEngine`
    skip expanding and scheduling the job entirely (no tasks are created,
    pickled or submitted); misses fall through to computation, whose
    outcome lands back here in ``store`` and is persisted atomically.
    """

    def __init__(self, cache: SweepCache) -> None:
        self.cache = cache

    def lookup(self, job: RecordJob) -> Optional[RecordOutcome]:
        """The cached outcome for this job, or None to schedule it."""
        return self.cache.load(
            job.record.name,
            job.record.duration_s,
            job.config,
            job.method,
            job.max_windows,
        )

    def store(self, job: RecordJob, outcome: RecordOutcome) -> None:
        """Persist a freshly computed job outcome."""
        self.cache.store(
            job.record.name,
            job.record.duration_s,
            job.config,
            job.method,
            job.max_windows,
            outcome,
        )


def cache_from_env() -> Optional[SweepCache]:
    """A :class:`SweepCache` at ``$REPRO_CACHE_DIR``, or None if unset."""
    directory = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if not directory:
        return None
    return SweepCache(Path(directory))
