"""Node-side front-ends: hybrid (CS + low-res) and normal CS.

:class:`HybridFrontEnd` implements the transmitter half of the paper's
Fig. 1: every fixed window of acquisition codes is

1. measured by the CS path — the RMPI-equivalent ``y = Φ x`` on the
   baseline-centered window, digitized at ``measurement_bits``;
2. re-quantized to ``lowres_bits`` on the parallel path, differenced and
   Huffman-coded with the offline codebook;
3. framed into a :class:`~repro.core.packets.WindowPacket`.

:class:`NormalCsFrontEnd` is the single-path baseline ("CS" in Figs. 7-8):
identical CS path, no parallel channel.

Both are deterministic functions of the shared
:class:`~repro.core.config.FrontEndConfig` (plus the trained codebook), so
a receiver built from the same config can invert every step that is
invertible.

Each front-end has one encode path, the batch engine
(:meth:`encode_windows`): it stacks windows into a matrix and runs
measurement, requantization and entropy coding as array kernels.
:meth:`process_window` is a one-row call of it and :meth:`process_record`
a call on the record's windows.  A window encodes to the same bytes
whatever stack it is in (``docs/encoding.md``), and the same bytes as
the per-window reference encoder the tests compare against
(``tests/per_bit_oracles.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.coding.codebook import DifferenceCodebook
from repro.core.config import FrontEndConfig
from repro.core.encode_batch import measure_window_stack
from repro.devtools.contracts import check_dtype, check_shape
from repro.core.packets import WindowPacket
from repro.sensing.quantizers import (
    UniformQuantizer,
    measurement_quantizer,
    requantize_codes,
)
from repro.signals.records import Record

__all__ = ["HybridFrontEnd", "NormalCsFrontEnd"]


class _CsPath:
    """Shared CS-path machinery: Φ construction and measurement ADC."""

    def __init__(self, config: FrontEndConfig) -> None:
        self.config = config
        self.phi = config.sensing.build(config.n_measurements, config.window_len)
        # Signals are centered codes, bounded by half the acquisition range.
        self.center = 1 << (config.acquisition_bits - 1)
        self.quantizer: UniformQuantizer = measurement_quantizer(
            self.phi, float(self.center), config.measurement_bits
        )

    def measure(self, codes: np.ndarray) -> np.ndarray:
        """CS measurement codes for one window; int array of shape ``(m,)``.

        A one-row call of :meth:`measure_stack`; ``perfbench``'s tracer
        patches this name.
        """
        return self.measure_stack(self.check_window_stack(
            np.asarray(codes)[None], name="codes"
        ))[0]

    def check_window_stack(self, windows, name: str = "windows") -> np.ndarray:
        """Validate a stack of acquisition windows; returns shape ``(w, n)`` ints.

        One window arrives as a one-row stack under ``name="codes"``.
        """
        arr = check_shape(windows, (None, self.config.window_len), name=name)
        arr = check_dtype(arr, "integer", name=name)
        if arr.size and (
            arr.min() < 0 or arr.max() >= (1 << self.config.acquisition_bits)
        ):
            raise ValueError(
                f"codes out of range for {self.config.acquisition_bits}-bit acquisition"
            )
        return arr

    def measure_stack(self, windows: np.ndarray) -> np.ndarray:
        """Measurement codes for a validated window stack; shape ``(w, m)``.

        One GEMM plus the quantizer boundary guard of
        :func:`repro.core.encode_batch.measure_window_stack`, so a row's
        codes do not depend on the stack it is measured in.
        """
        centered = windows.astype(float) - self.center
        return measure_window_stack(self.phi, self.quantizer, centered)


class HybridFrontEnd:
    """The transmitter of the hybrid front-end (paper Fig. 1).

    Parameters
    ----------
    config:
        Shared link configuration.
    codebook:
        Offline-trained difference codebook; its resolution must match
        ``config.lowres_bits``.
    """

    def __init__(self, config: FrontEndConfig, codebook: DifferenceCodebook) -> None:
        if codebook.resolution_bits != config.lowres_bits:
            raise ValueError(
                f"codebook trained for {codebook.resolution_bits}-bit streams but "
                f"config uses {config.lowres_bits}-bit low-res channel"
            )
        self.config = config
        self.codebook = codebook
        self._cs = _CsPath(config)

    @property
    def phi(self) -> np.ndarray:
        """The CS path's sensing matrix, shape ``(m, n)`` (receiver rebuilds it)."""
        return self._cs.phi

    def process_window(self, codes: np.ndarray, window_index: int = 0) -> WindowPacket:
        """Acquire and frame one window: a one-row :meth:`encode_windows`."""
        stack = self._cs.check_window_stack(np.asarray(codes)[None], name="codes")
        return self.encode_windows(stack, indices=[window_index])[0]

    def encode_windows(
        self,
        windows,
        indices: Optional[Sequence[int]] = None,
        start_index: int = 0,
    ) -> List[WindowPacket]:
        """Encode a stack of windows: measure, requantize, code, frame.

        ``windows`` is a ``(w, n)`` matrix (or a sequence of ``(n,)``
        windows); packet ``i`` gets ``indices[i]`` (default
        ``start_index + i``) and equals ``process_window(windows[i], ...)``
        byte for byte.
        """
        stack = self._cs.check_window_stack(windows)
        indices = _resolve_indices(stack.shape[0], indices, start_index)
        y_codes = self._cs.measure_stack(stack)
        lowres = requantize_codes(
            stack, self.config.acquisition_bits, self.config.lowres_bits
        )
        encoded = self.codebook.encode_windows(lowres)
        return [
            WindowPacket(
                window_index=index,
                n=self.config.window_len,
                measurement_codes=y_codes[i],
                measurement_bits=self.config.measurement_bits,
                lowres_payload=payload,
                lowres_bit_length=bit_length,
            )
            for i, (index, (payload, bit_length)) in enumerate(
                zip(indices, encoded)
            )
        ]

    def process_record(
        self, record: Record, max_windows: Optional[int] = None
    ) -> List[WindowPacket]:
        """Process a whole record through the batch engine."""
        windows = _collect_record_windows(self.config, record, max_windows)
        if not windows:
            return []
        return self.encode_windows(np.stack(windows))


class NormalCsFrontEnd:
    """Single-path CS transmitter — the paper's "normal CS" baseline."""

    def __init__(self, config: FrontEndConfig) -> None:
        self.config = config
        self._cs = _CsPath(config)

    @property
    def phi(self) -> np.ndarray:
        """The sensing matrix, shape ``(m, n)``."""
        return self._cs.phi

    def process_window(self, codes: np.ndarray, window_index: int = 0) -> WindowPacket:
        """Acquire and frame one window: a one-row :meth:`encode_windows`."""
        stack = self._cs.check_window_stack(np.asarray(codes)[None], name="codes")
        return self.encode_windows(stack, indices=[window_index])[0]

    def encode_windows(
        self,
        windows,
        indices: Optional[Sequence[int]] = None,
        start_index: int = 0,
    ) -> List[WindowPacket]:
        """Measure and frame a stack of windows (empty low-res payloads)."""
        stack = self._cs.check_window_stack(windows)
        indices = _resolve_indices(stack.shape[0], indices, start_index)
        y_codes = self._cs.measure_stack(stack)
        return [
            WindowPacket(
                window_index=index,
                n=self.config.window_len,
                measurement_codes=y_codes[i],
                measurement_bits=self.config.measurement_bits,
                lowres_payload=b"",
                lowres_bit_length=0,
            )
            for i, index in enumerate(indices)
        ]

    def process_record(
        self, record: Record, max_windows: Optional[int] = None
    ) -> List[WindowPacket]:
        """Process a whole record through the batch engine."""
        windows = _collect_record_windows(self.config, record, max_windows)
        if not windows:
            return []
        return self.encode_windows(np.stack(windows))


def _collect_record_windows(
    config: FrontEndConfig, record: Record, max_windows: Optional[int]
) -> List[np.ndarray]:
    """The record's full windows, capped at ``max_windows``."""
    if record.header.resolution_bits != config.acquisition_bits:
        raise ValueError(
            "record resolution does not match the configured acquisition depth"
        )
    windows: List[np.ndarray] = []
    for idx, window in enumerate(record.windows(config.window_len)):
        if max_windows is not None and idx >= max_windows:
            break
        windows.append(window)
    return windows


def _resolve_indices(
    n_windows: int, indices: Optional[Sequence[int]], start_index: int
) -> List[int]:
    """Window indices for a batch: explicit list or a run from start_index."""
    if indices is None:
        return list(range(start_index, start_index + n_windows))
    resolved = [int(i) for i in indices]
    if len(resolved) != n_windows:
        raise ValueError("indices must match the number of windows")
    return resolved
