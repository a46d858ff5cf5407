"""Adaptive measurement allocation driven by the low-resolution channel.

A natural extension of the paper's architecture (in the spirit of its
"future work" on smarter acquisition): the node *already* digitizes the
low-resolution stream, so it can estimate each window's complexity for
free — quiet baseline windows need far fewer CS measurements than windows
full of QRS energy or motion artifact.  With an RMPI bank, "fewer
measurements" literally means powering down channels for that window, so
saved measurements are saved amplifier energy, not just radio bits.

Components:

* :class:`ActivityEstimator` — a complexity score from the low-res codes
  (fraction of non-zero differences, the same statistic the entropy coder
  exploits);
* :class:`AdaptiveFrontEnd` — picks ``m`` per window from a budget range
  by the activity score; the chipping matrix is the *prefix* of a shared
  ``m_max``-channel bank, so the receiver can rebuild Φ for any ``m``
  from the shared seed;
* :class:`AdaptiveReceiver` — per-``m`` receiver cache keyed off the
  packet header (``m`` is already a header field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.coding.codebook import DifferenceCodebook
from repro.core.config import FrontEndConfig
from repro.core.frontend import HybridFrontEnd, _collect_record_windows
from repro.core.packets import WindowPacket
from repro.core.receiver import HybridReceiver, WindowReconstruction
from repro.sensing.quantizers import requantize_codes
from repro.signals.records import Record

__all__ = ["ActivityEstimator", "AdaptiveFrontEnd", "AdaptiveReceiver"]


@dataclass(frozen=True)
class ActivityEstimator:
    """Window-complexity score from the low-resolution codes.

    The score is the fraction of consecutive low-res samples that differ —
    0 for a flat window, approaching 1 when every sample moves by at least
    one low-res step.  Cheap (a comparison per sample) and computed from
    data the node must produce anyway.
    """

    def score(self, lowres_codes: np.ndarray) -> float:
        """Activity in [0, 1] for one window of low-res codes."""
        arr = np.asarray(lowres_codes)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need a 1-D window of at least 2 samples")
        diffs = np.diff(arr)
        return float(np.count_nonzero(diffs) / diffs.size)


class AdaptiveFrontEnd:
    """Hybrid front-end with per-window measurement allocation.

    Parameters
    ----------
    config:
        Shared configuration; ``config.n_measurements`` is interpreted as
        the *maximum* channel count ``m_max`` (the physical bank size).
    codebook:
        Offline difference codebook (as for the fixed front-end).
    m_min:
        Floor on the per-window measurement count.
    activity_knee:
        Activity score mapped to the top of the measurement range; windows
        scoring at or above it get all ``m_max`` channels.
    """

    def __init__(
        self,
        config: FrontEndConfig,
        codebook: DifferenceCodebook,
        *,
        m_min: int = 16,
        activity_knee: float = 0.6,
        estimator: Optional[ActivityEstimator] = None,
    ) -> None:
        if not 1 <= m_min <= config.n_measurements:
            raise ValueError("m_min must be in [1, m_max]")
        if not 0.0 < activity_knee <= 1.0:
            raise ValueError("activity_knee must be in (0, 1]")
        if codebook.resolution_bits != config.lowres_bits:
            raise ValueError("codebook resolution does not match the config")
        self.config = config
        self.codebook = codebook
        self.m_min = m_min
        self.m_max = config.n_measurements
        self.activity_knee = activity_knee
        self.estimator = estimator or ActivityEstimator()
        # One fixed front-end per m, built exactly as a fixed node (and
        # therefore the receiver) would build it from the shared seed.
        # Physically the sign pattern of the m-channel Φ is the row prefix
        # of the m_max bank (same PRNG stream), i.e. "power down the rest".
        self._frontends: Dict[int, HybridFrontEnd] = {}

    def _frontend_for(self, m: int) -> HybridFrontEnd:
        if m not in self._frontends:
            self._frontends[m] = HybridFrontEnd(
                self.config.with_measurements(m), self.codebook
            )
        return self._frontends[m]

    def measurements_for_activity(self, activity: float) -> int:
        """Map an activity score to a channel count (linear up to the knee)."""
        if not 0.0 <= activity <= 1.0:
            raise ValueError("activity must be in [0, 1]")
        fraction = min(activity / self.activity_knee, 1.0)
        m = self.m_min + fraction * (self.m_max - self.m_min)
        return int(round(m))

    def process_window(self, codes: np.ndarray, window_index: int = 0) -> WindowPacket:
        """Acquire one window with an activity-matched channel count."""
        arr = np.asarray(codes)
        if arr.ndim != 1 or arr.size != self.config.window_len:
            raise ValueError(
                f"expected a window of {self.config.window_len} samples"
            )
        lowres = requantize_codes(
            arr, self.config.acquisition_bits, self.config.lowres_bits
        )
        m = self.measurements_for_activity(self.estimator.score(lowres))
        return self._frontend_for(m).process_window(arr, window_index)

    def process_record(
        self, record: Record, max_windows: Optional[int] = None
    ) -> List[WindowPacket]:
        """Process a record window by window (each picks its own ``m``)."""
        windows = _collect_record_windows(self.config, record, max_windows)
        return [self.process_window(w, idx) for idx, w in enumerate(windows)]


class AdaptiveReceiver:
    """Receiver for variable-``m`` packets.

    Reads ``m`` from each packet header and lazily builds (and caches) a
    fixed-``m`` :class:`HybridReceiver` whose Φ is the same row prefix of
    the shared bank the node used.
    """

    def __init__(self, config: FrontEndConfig, codebook: DifferenceCodebook) -> None:
        self.config = config
        self.codebook = codebook
        self._receivers: Dict[int, HybridReceiver] = {}

    def _receiver_for(self, m: int) -> HybridReceiver:
        if m not in self._receivers:
            if not 1 <= m <= self.config.n_measurements:
                raise ValueError(
                    f"packet uses m={m}, outside the bank size "
                    f"{self.config.n_measurements}"
                )
            self._receivers[m] = HybridReceiver(
                self.config.with_measurements(m), self.codebook
            )
        return self._receivers[m]

    def reconstruct(self, packet: WindowPacket) -> WindowReconstruction:
        """Reconstruct one variable-m packet."""
        return self._receiver_for(packet.m).reconstruct(packet)
