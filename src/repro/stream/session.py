"""Per-patient receiver sessions for the streaming gateway.

A :class:`PatientSession` is the stateful receiver end of one patient's
stream.  It tolerates the real-world arrival pathologies the batch
pipeline never sees:

* **out-of-order frames** — held in a bounded reorder buffer and
  released in window order once the gap fills or the reorder horizon
  (``reorder_depth`` windows) is exceeded;
* **erasures** — a window that never arrives is detected as a sequence
  gap and concealed by zero-order hold (the previous completed window's
  reconstruction, or the baseline for a cold start), exactly the
  :class:`repro.core.channel.RobustReceiver` policy;
* **payload corruption** — CRC mismatch or Huffman desync falls back to
  CS-only recovery via :func:`repro.core.channel.decode_robust`;
* **late/duplicate frames** — counted and dropped.

The expensive per-window convex solves are *not* run inside the session:
the session plans work (:class:`PlannedWindow`), the gateway fans the
resulting :class:`RecoveryTask` units out through a
:class:`repro.runtime.executors.Executor` (the solves are independent
pure functions, like every batch window task), and completed results are
applied back in window order.  Reconstructed signal is retained in a
bounded :class:`SignalRing` — a session's memory footprint is constant
no matter how long the stream runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.coding.codebook import DifferenceCodebook
from repro.core.channel import conceal_codes, decode_robust
from repro.core.config import FrontEndConfig
from repro.core.packets import WindowPacket
from repro.devtools.contracts import check_dtype, check_shape
from repro.metrics.quality import clipped_snr_db
from repro.metrics.quality import prd as prd_metric
from repro.recovery.methods import resolve_method
from repro.runtime.stages import link_for_params, reference_centered
from repro.runtime.task import CodebookSpec
from repro.stream.ingest import StreamFrame, codebook_spec_for
from repro.stream.metrics import RollingStat, SessionSnapshot

__all__ = [
    "RecoveryTask",
    "RecoveredWindow",
    "execute_recovery_task",
    "PlannedWindow",
    "SignalRing",
    "PatientSession",
]

@dataclass(frozen=True)
class RecoveryTask:
    """One streaming window solve as a picklable work unit.

    The streaming analogue of :class:`repro.runtime.task.WindowTask`:
    every field is a plain value, so the task can cross a process
    boundary and any worker reconstructs identical state from it via the
    per-process link cache (:func:`repro.runtime.stages.link_for_params`).
    The solve reads nothing else: a window decodes the same whether it
    arrives mid-stream or alone, and whichever executor runs it.
    """

    patient_id: str
    window_index: int
    packet: WindowPacket
    crc: Optional[int]
    config: FrontEndConfig
    method: str
    codebook: CodebookSpec
    reference: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        resolve_method(self.method)
        if self.window_index < 0:
            raise ValueError("window_index cannot be negative")


@dataclass(frozen=True)
class RecoveredWindow:
    """Result of one streaming window solve.

    ``mode`` is ``"hybrid"`` or ``"cs-fallback"`` (concealment never
    reaches a worker); ``prd_percent``/``snr_db`` are ``None`` when the
    frame carried no reference.
    """

    patient_id: str
    window_index: int
    x_codes: np.ndarray
    mode: str
    prd_percent: Optional[float]
    snr_db: Optional[float]
    iterations: int
    converged: bool


def execute_recovery_task(task: RecoveryTask) -> RecoveredWindow:
    """Run one streaming recovery solve; pure in ``task``.

    This is the worker function the gateway hands to its executor: CRC
    check, hybrid Eq. 1 solve with CS-only fallback on payload damage,
    and optional scoring against the frame's telemetry reference — all
    stateless, so solves parallelize across windows, sessions, and
    processes and are bit-identical regardless of scheduling.
    """
    link = link_for_params(task.config, task.method, task.codebook)
    recon, mode = decode_robust(task.packet, task.crc, link.receiver)
    prd_percent: Optional[float] = None
    snr: Optional[float] = None
    if task.reference is not None:
        center = 1 << (task.config.acquisition_bits - 1)
        reference = reference_centered(task.reference, center)
        prd_percent = prd_metric(reference, recon.x_centered(center))
        snr = clipped_snr_db(prd_percent)
    return RecoveredWindow(
        patient_id=task.patient_id,
        window_index=task.window_index,
        x_codes=recon.x_codes,
        mode=mode,
        prd_percent=prd_percent,
        snr_db=snr,
        iterations=recon.recovery.iterations,
        converged=recon.recovery.converged,
    )


@dataclass(frozen=True)
class PlannedWindow:
    """One in-order window the session has released for completion.

    ``task is None`` means the window was declared lost and must be
    concealed locally; otherwise the task is dispatched to an executor
    and its result applied back.  ``arrival_ts`` is the gateway-clock
    arrival time (``None`` for concealments — nothing ever arrived).
    """

    patient_id: str
    window_index: int
    task: Optional[RecoveryTask]
    arrival_ts: Optional[float]


class SignalRing:
    """Bounded ring buffer over the latest reconstructed samples.

    Appends are O(chunk); memory is a fixed ``capacity`` floats no
    matter how many samples stream through — the session's contribution
    to the gateway's bounded-memory guarantee.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._buf = np.zeros(self.capacity)
        self._size = 0
        self._pos = 0  # next write position
        self._total = 0

    def __len__(self) -> int:
        return self._size

    @property
    def total_written(self) -> int:
        """Lifetime number of samples appended."""
        return self._total

    def extend(self, samples: np.ndarray) -> None:
        """Append a 1-D sample chunk, evicting the oldest beyond capacity."""
        arr = np.asarray(samples, dtype=float).ravel()
        self._total += arr.size
        if arr.size >= self.capacity:
            self._buf[:] = arr[-self.capacity :]
            self._pos = 0
            self._size = self.capacity
            return
        first = min(arr.size, self.capacity - self._pos)
        self._buf[self._pos : self._pos + first] = arr[:first]
        rest = arr.size - first
        if rest:
            self._buf[:rest] = arr[first:]
        self._pos = (self._pos + arr.size) % self.capacity
        self._size = min(self._size + arr.size, self.capacity)

    def read(self) -> np.ndarray:
        """The retained samples oldest→newest; 1-D, shape ``(len(self),)``."""
        if self._size < self.capacity:
            return self._buf[: self._size].copy()
        return np.concatenate((self._buf[self._pos :], self._buf[: self._pos]))


class PatientSession:
    """Receiver-side state for one patient stream.

    Parameters
    ----------
    patient_id:
        Stream identity (must match the frames routed here).
    config:
        Shared link configuration (equal to the transmitter's).
    method:
        ``"hybrid"`` or ``"normal"`` — selects the solve the session's
        recovery tasks run.
    codebook:
        Explicit codebook; defaults to the trained default codebook for
        the config's resolutions (hybrid only).
    reorder_depth:
        How many windows ahead of the next expected index a frame may
        run before the gap is declared an erasure and concealed.  ``0``
        disables reordering: any gap is concealed immediately.
    ring_windows:
        Reconstructed-signal retention, in windows.
    rolling_window:
        Number of recent scored windows in the PRD/SNR rolling means.
    """

    def __init__(
        self,
        patient_id: str,
        config: FrontEndConfig,
        *,
        method: str = "hybrid",
        codebook: Optional[DifferenceCodebook] = None,
        reorder_depth: int = 4,
        ring_windows: int = 8,
        rolling_window: int = 256,
    ) -> None:
        if reorder_depth < 0:
            raise ValueError("reorder_depth cannot be negative")
        if ring_windows <= 0:
            raise ValueError("ring_windows must be positive")
        self.patient_id = str(patient_id)
        self.config = config
        self.method = method
        self.codebook_spec = codebook_spec_for(config, method, codebook)
        self.reorder_depth = int(reorder_depth)
        self.ring = SignalRing(ring_windows * config.window_len)
        self.rolling_prd = RollingStat(rolling_window)
        self.rolling_snr = RollingStat(rolling_window)

        self._next = 0  # next window index to release, in order
        self._pending: Dict[int, Tuple[StreamFrame, Optional[float]]] = {}
        self._last_codes: Optional[np.ndarray] = None
        self.late_drops = 0
        self.duplicate_drops = 0
        self.solved = 0
        self.concealed = 0
        self.cs_fallbacks = 0

    @property
    def next_window(self) -> int:
        """Next window index the session will release."""
        return self._next

    @property
    def windows_completed(self) -> int:
        """Windows fully resolved (solved or concealed)."""
        return self.solved + self.concealed

    @property
    def pending_reorder(self) -> int:
        """Frames held in the reorder buffer awaiting release."""
        return len(self._pending)

    def _task_for(self, frame: StreamFrame) -> RecoveryTask:
        reference = frame.reference
        if reference is not None:
            reference = check_shape(
                reference, (self.config.window_len,), name="reference"
            )
            reference = check_dtype(reference, "integer", name="reference")
        return RecoveryTask(
            patient_id=self.patient_id,
            window_index=frame.window_index,
            packet=frame.packet,
            crc=frame.crc,
            config=self.config,
            method=self.method,
            codebook=self.codebook_spec,
            reference=reference,
        )

    def _release(self, force: bool) -> List[PlannedWindow]:
        ready: List[PlannedWindow] = []
        while self._pending:
            held = self._pending.pop(self._next, None)
            if held is not None:
                frame, ts = held
                ready.append(
                    PlannedWindow(
                        self.patient_id, self._next, self._task_for(frame), ts
                    )
                )
                self._next += 1
                continue
            horizon = max(self._pending)
            if not force and horizon - self._next < self.reorder_depth:
                break
            # The gap outlived the reorder horizon: that window is lost.
            ready.append(
                PlannedWindow(self.patient_id, self._next, None, None)
            )
            self._next += 1
        return ready

    def offer(
        self, frame: StreamFrame, arrival_ts: Optional[float] = None
    ) -> List[PlannedWindow]:
        """Accept one arriving frame; return windows now ready to resolve.

        Released windows come back strictly in window order.  A frame
        whose index was already resolved counts as a late drop; a frame
        already held counts as a duplicate.  Frames for other patients
        are rejected loudly — routing is the gateway's job.
        """
        if frame.patient_id != self.patient_id:
            raise ValueError(
                f"frame for patient {frame.patient_id!r} offered to "
                f"session {self.patient_id!r}"
            )
        index = frame.window_index
        if index < self._next:
            self.late_drops += 1
            return []
        if index in self._pending:
            self.duplicate_drops += 1
            return []
        self._pending[index] = (frame, arrival_ts)
        return self._release(force=False)

    def finish(self) -> List[PlannedWindow]:
        """Flush the reorder buffer at end of stream.

        Remaining gaps are concealed and every held frame is released;
        erasures *after* the last received frame are unknowable (nothing
        ever signals them) and are intentionally not synthesized.
        """
        return self._release(force=True)

    def apply(
        self, planned: PlannedWindow, result: Optional[RecoveredWindow]
    ) -> str:
        """Complete one released window with its solve result (or conceal).

        Must be called in release order; updates the zero-order-hold
        state, the signal ring, the counters, and (for scored solves)
        the rolling quality stats.  Returns the completion mode:
        ``"hybrid"``, ``"cs-fallback"`` or ``"concealed"``.
        """
        if planned.patient_id != self.patient_id:
            raise ValueError("planned window belongs to another session")
        if planned.task is None:
            codes = conceal_codes(self.config, self._last_codes)
            mode = "concealed"
            self.concealed += 1
        else:
            if result is None:
                raise ValueError("solve-planned window completed without a result")
            codes = result.x_codes
            mode = result.mode
            self.solved += 1
            if mode == "cs-fallback":
                self.cs_fallbacks += 1
            if result.prd_percent is not None:
                self.rolling_prd.push(result.prd_percent)
            if result.snr_db is not None:
                self.rolling_snr.push(result.snr_db)
        self._last_codes = codes
        self.ring.extend(codes)
        return mode

    def snapshot(self) -> SessionSnapshot:
        """The session's current telemetry as an immutable snapshot."""
        return SessionSnapshot(
            patient_id=self.patient_id,
            next_window=self._next,
            windows_completed=self.windows_completed,
            solved=self.solved,
            concealed=self.concealed,
            cs_fallbacks=self.cs_fallbacks,
            late_drops=self.late_drops,
            duplicate_drops=self.duplicate_drops,
            pending_reorder=len(self._pending),
            buffered_samples=len(self.ring),
            rolling_prd_percent=self.rolling_prd.mean,
            rolling_snr_db=self.rolling_snr.mean,
            prd_p95_percent=self.rolling_prd.percentile(95.0),
        )
