"""End-to-end pipeline: record → packets → reconstruction → metrics.

Compatibility surface over the staged execution engine
(:mod:`repro.runtime`).  :func:`run_record` and :func:`run_database`
keep their historical signatures but are now thin wrappers that build
:class:`~repro.runtime.engine.RecordJob` units and schedule them through
an :class:`~repro.runtime.engine.ExecutionEngine`; pass ``executor=``
(e.g. :class:`repro.runtime.ParallelExecutor`) to fan window solves out
over processes.  The default :class:`~repro.runtime.SerialExecutor` is
bit-identical to the old in-process loop.

The outcome dataclasses live in :mod:`repro.core.outcomes` and the
codebook training in :mod:`repro.core.codebooks`; both are re-exported
here for existing importers.

Receiver-side operator state (the composed ΦΨ, its Gram matrix and the
solver factorizations) is shared across every window of a run — and
across runs at the same operating point — through the process-wide
:data:`repro.recovery.opcache.PROBLEM_CACHE` (see :doc:`docs/recovery`).
This is transparent to callers: caching is bit-neutral, so
``run_record`` output is the same from a cold or a warm cache.
"""

from __future__ import annotations

# reprolint: disable-file=RL100 -- compat facade: run_record/run_database
# predate the engine and keep their public home here while callers
# migrate; the layering arrow core→runtime is deliberate in this one
# module (see docs/architecture.md).

from typing import List, Optional, Sequence

from repro.coding.codebook import DifferenceCodebook
from repro.core.codebooks import default_codebook
from repro.core.config import FrontEndConfig
from repro.core.outcomes import RecordOutcome, WindowOutcome
from repro.runtime.engine import ExecutionEngine, RecordJob
from repro.runtime.executors import Executor
from repro.runtime.task import CodebookSpec
from repro.signals.records import Record

__all__ = [
    "WindowOutcome",
    "RecordOutcome",
    "default_codebook",
    "run_record",
    "run_database",
]


def _job(
    record: Record,
    config: FrontEndConfig,
    method: str,
    codebook: Optional[DifferenceCodebook],
    max_windows: Optional[int],
) -> RecordJob:
    spec = CodebookSpec.from_object(codebook) if codebook is not None else None
    return RecordJob(
        record=record,
        config=config,
        method=method,
        codebook=spec,
        max_windows=max_windows,
    )


def run_record(
    record: Record,
    config: FrontEndConfig,
    *,
    method: str = "hybrid",
    codebook: Optional[DifferenceCodebook] = None,
    max_windows: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> RecordOutcome:
    """Run one record end-to-end through the chosen front-end.

    Parameters
    ----------
    record:
        Input record; its resolution must match the config.
    config:
        Shared link configuration.
    method:
        ``"hybrid"`` (CS + low-res bounds) or ``"normal"`` (CS only).
    codebook:
        Difference codebook; trained on the default corpus when omitted
        (hybrid only).
    max_windows:
        Cap on processed windows (None = all full windows).
    executor:
        Task executor; defaults to the serial engine.  A parallel
        executor spreads the window solves over processes and returns
        bit-identical results.

    Returns
    -------
    RecordOutcome
        Per-window PRD/SNR (computed on baseline-centered signals, so the
        constant ADC offset does not inflate signal energy) plus the full
        bit accounting of the transmitted frames.
    """
    engine = ExecutionEngine(executor=executor)
    return engine.run_job(_job(record, config, method, codebook, max_windows))


def run_database(
    records: Sequence[Record],
    config: FrontEndConfig,
    *,
    method: str = "hybrid",
    codebook: Optional[DifferenceCodebook] = None,
    max_windows: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> List[RecordOutcome]:
    """Run several records; returns one :class:`RecordOutcome` each.

    All records are scheduled as one task batch, so a parallel executor
    overlaps window solves *across* records, not just within one.
    """
    engine = ExecutionEngine(executor=executor)
    return engine.run_jobs(
        [_job(rec, config, method, codebook, max_windows) for rec in records]
    )
