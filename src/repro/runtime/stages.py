"""The four pipeline stages and the per-process state they share.

The end-to-end flow the experiment drivers used to hand-roll is an
explicit stage graph over :class:`~repro.runtime.task.WindowTask` units:

* :func:`encode`    — node side: CS measure + low-res code + frame,
  through the batched encode engine (:func:`encode_batch` runs a stack
  of same-link windows, :func:`encode` a stack of one; a window's bytes
  do not depend on the stack);
* :func:`transport` — the radio link (identity today; the seeded hook
  where lossy-link models plug in);
* :func:`recover`   — receiver side: decode + Eq. 1 / BPDN solve;
* :func:`score`     — PRD/SNR/bit accounting against the reference.

:func:`execute_window_task` composes them and is the function executors
ship to workers.  Front-end/receiver pairs are deterministic functions of
``(config, method, codebook)``, so each process memoizes them in
:func:`link_for` — a worker pays the Φ/Ψ construction cost once per
distinct config, not once per window.

Below the link memo sits the process-wide operator cache
(:data:`repro.recovery.opcache.PROBLEM_CACHE`): every receiver built
here pulls its :class:`~repro.recovery.problem.CsProblem` from it, so
links that differ only in method or codebook — e.g. the hybrid and
normal arms of one sweep cell — share a single ΦΨ composition and its
factorizations.
:func:`recovery_cache_stats` exposes both layers' hit accounting on
gateway snapshots.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import FrontEndConfig
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.core.outcomes import WindowOutcome
from repro.core.packets import WindowPacket
from repro.core.receiver import HybridReceiver, WindowReconstruction
from repro.metrics.quality import clipped_snr_db
from repro.metrics.quality import prd as prd_metric
from repro.recovery.methods import resolve_method
from repro.runtime.task import CodebookSpec, WindowTask

__all__ = [
    "STAGE_NAMES",
    "Link",
    "link_for",
    "link_for_params",
    "recovery_cache_stats",
    "reference_centered",
    "encode",
    "encode_batch",
    "transport",
    "recover",
    "score",
    "execute_window_task",
]

#: Stage order of the engine's graph.
STAGE_NAMES: Tuple[str, ...] = ("encode", "transport", "recover", "score")


class Link(NamedTuple):
    """A matched transmitter/receiver pair built from one config."""

    frontend: Union[HybridFrontEnd, NormalCsFrontEnd]
    receiver: HybridReceiver


def _build_link(
    config: FrontEndConfig, method: str, spec: CodebookSpec
) -> Link:
    mspec = resolve_method(method)
    codebook = spec.resolve()
    if mspec.uses_lowres:
        if codebook is None:
            raise ValueError(f"method {method!r} tasks need a codebook spec")
        return Link(
            frontend=HybridFrontEnd(config, codebook),
            receiver=HybridReceiver(config, codebook, method=method),
        )
    return Link(
        frontend=NormalCsFrontEnd(config),
        receiver=HybridReceiver(config, method=method),
    )


@lru_cache(maxsize=16)
def _cached_link(
    config: FrontEndConfig, method: str, spec: CodebookSpec
) -> Link:
    return _build_link(config, method, spec)


#: Small memo for inline-codebook links, keyed by object identity (an
#: inline codebook is not hashable).  Values keep the codebook alive so
#: the id cannot be recycled while the entry exists.
_INLINE_LINKS: "OrderedDict[Tuple[FrontEndConfig, str, int], Tuple[CodebookSpec, Link]]" = (
    OrderedDict()
)
_INLINE_LINKS_MAX = 8


def link_for_params(
    config: FrontEndConfig, method: str, spec: CodebookSpec
) -> Link:
    """The per-process front-end/receiver pair for explicit parameters.

    This is the memoization point shared by the batch stage graph
    (:func:`link_for`) and the streaming recovery workers
    (:func:`repro.stream.session.execute_recovery_task`): any process
    pays the Φ/Ψ construction cost once per distinct
    ``(config, method, codebook)`` triple.
    """
    if spec.is_hashable:
        return _cached_link(config, method, spec)
    key = (config, method, id(spec.inline))
    hit = _INLINE_LINKS.get(key)
    if hit is not None:
        _INLINE_LINKS.move_to_end(key)
        return hit[1]
    link = _build_link(config, method, spec)
    _INLINE_LINKS[key] = (spec, link)
    while len(_INLINE_LINKS) > _INLINE_LINKS_MAX:
        _INLINE_LINKS.popitem(last=False)
    return link


def link_for(task: WindowTask) -> Link:
    """The per-process front-end/receiver pair for a task's parameters."""
    return link_for_params(task.config, task.method, task.codebook)


def recovery_cache_stats() -> dict:
    """Hit accounting for this process's receiver-side caches.

    Combines the operator cache (shared ΦΨ compositions and their
    factorizations) with the sizes of both link memos.  Gateway
    snapshots carry it as ``recovery_cache``; ``perfbench/`` reads the
    operator-cache hit fraction directly (see ``perfbench/README.md``).
    """
    from repro.recovery.opcache import PROBLEM_CACHE

    info = _cached_link.cache_info()
    stats = dict(PROBLEM_CACHE.stats())
    stats["link_cache_size"] = info.currsize
    stats["inline_link_cache_size"] = len(_INLINE_LINKS)
    return stats


def reference_centered(codes: np.ndarray, center: int) -> np.ndarray:
    """Baseline-centered reference signal, shape ``(n,)`` float.

    Uses :func:`numpy.asarray` so an already-float input is centered
    without the redundant ``astype`` copy the old pipeline paid.
    """
    return np.asarray(codes, dtype=float) - center


def encode(task: WindowTask, link: Optional[Link] = None) -> WindowPacket:
    """Node stage: acquire and frame one window of acquisition codes.

    A batch of one through the encode engine, as the front-end's
    ``process_window`` is.
    """
    return encode_batch([task], link)[0]


def encode_batch(
    tasks: Sequence[WindowTask], link: Optional[Link] = None
) -> List[WindowPacket]:
    """Node stage over a batch: one engine call for several windows.

    All tasks must share one link (same ``config``/``method``/codebook) —
    the batch is a stack of windows through a single front-end.  Output
    is bit-identical to mapping the front-end's ``process_window`` over
    the tasks (see ``docs/encoding.md``).
    """
    if not tasks:
        return []
    first = tasks[0]
    for task in tasks[1:]:
        if (
            task.config != first.config
            or task.method != first.method
            or task.codebook != first.codebook
        ):
            raise ValueError("encode_batch tasks must share one link")
    link = link or link_for(first)
    return link.frontend.encode_windows(
        np.stack([task.codes for task in tasks]),
        indices=[task.window_index for task in tasks],
    )


def transport(packet: WindowPacket, task: WindowTask) -> WindowPacket:
    """Link stage: deliver the packet to the receiver.

    An ideal channel today — the packet passes through unchanged.  This
    is the seam for channel impairment models: a lossy variant would
    draw from ``np.random.default_rng(task.seed)`` so drops/corruption
    are reproducible regardless of which worker runs the task.
    """
    del task  # identity channel; the seed is reserved for lossy models
    return packet


def recover(
    packet: WindowPacket, task: WindowTask, link: Optional[Link] = None
) -> WindowReconstruction:
    """Receiver stage: decode the packet and solve the convex program."""
    link = link or link_for(task)
    return link.receiver.reconstruct(packet)


def score(
    task: WindowTask, packet: WindowPacket, recon: WindowReconstruction
) -> WindowOutcome:
    """Metrics stage: PRD/SNR against the baseline-centered reference."""
    center = 1 << (task.config.acquisition_bits - 1)
    reference = reference_centered(task.codes, center)
    p = prd_metric(reference, recon.x_centered(center))
    return WindowOutcome(
        window_index=task.window_index,
        prd_percent=p,
        snr_db=clipped_snr_db(p),
        budget=packet.budget(),
        solver_iterations=recon.recovery.iterations,
        solver_converged=recon.recovery.converged,
    )


def execute_window_task(task: WindowTask) -> WindowOutcome:
    """Run one task through the full stage graph.

    This is the executor worker function: pure in ``task`` (given the
    deterministic synthetic database), so any process computing the same
    task produces a bit-identical :class:`WindowOutcome`.
    """
    link = link_for(task)
    packet = encode(task, link)
    packet = transport(packet, task)
    recon = recover(packet, task, link)
    return score(task, packet, recon)
