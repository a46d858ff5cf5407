"""Extension experiment: diagnostic quality (QRS detection) vs CR.

The paper uses PRD/SNR as proxies for diagnostic quality (§IV).  This
extension measures the end goal directly: run a Pan-Tompkins-style QRS
detector on the reconstructions and score beat sensitivity/PPV against the
beats detected on the original — for both methods across the CR axis.
The expected shape mirrors Fig. 7: hybrid reconstructions keep the
detector working deep into the >90 % CR regime where normal CS has
destroyed the QRS complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codebooks import CodebookKey
from repro.core.config import FrontEndConfig
from repro.experiments.runner import ExperimentScale, active_scale
from repro.metrics.diagnostic import reconstruction_fidelity
from repro.runtime.stages import link_for_params
from repro.runtime.task import CodebookSpec

__all__ = ["DiagnosticPoint", "DiagnosticData", "run_diagnostic"]


@dataclass(frozen=True)
class DiagnosticPoint:
    """Beat-detection fidelity at one CR for one method."""

    cr_percent: float
    method: str
    sensitivity: float
    positive_predictivity: float
    f1: float
    n_reference_beats: int


@dataclass(frozen=True)
class DiagnosticData:
    """Both methods' fidelity curves."""

    points: Tuple[DiagnosticPoint, ...]

    def series(self, method: str) -> List[DiagnosticPoint]:
        """One method's points, ascending in CR."""
        return sorted(
            (p for p in self.points if p.method == method),
            key=lambda p: p.cr_percent,
        )

    def hybrid_dominates(self) -> bool:
        """Hybrid F1 >= normal F1 at every CR (small slack for ties)."""
        normal = {p.cr_percent: p.f1 for p in self.series("normal")}
        return all(
            p.f1 >= normal[p.cr_percent] - 0.02 for p in self.series("hybrid")
        )


def run_diagnostic(
    cr_values: Sequence[float] = (75.0, 88.0, 94.0, 97.0),
    *,
    base_config: Optional[FrontEndConfig] = None,
    scale: Optional[ExperimentScale] = None,
    windows_per_record: int = 4,
) -> DiagnosticData:
    """Measure beat-detection fidelity over the CR axis.

    The detector needs several seconds of context, so whole multi-window
    stretches are reconstructed and scored as one waveform per record.
    """
    config_base = base_config or FrontEndConfig()
    scale = scale or active_scale()
    records = scale.records()
    specs = {
        "hybrid": CodebookSpec.default(
            CodebookKey(
                lowres_bits=config_base.lowres_bits,
                acquisition_bits=config_base.acquisition_bits,
            )
        ),
        "normal": CodebookSpec.none(),
    }
    center = 1 << (config_base.acquisition_bits - 1)

    points: List[DiagnosticPoint] = []
    for cr in cr_values:
        config = config_base.for_cr(cr)
        for method, spec in specs.items():
            frontend, receiver = link_for_params(config, method, spec)
            sens, ppv, f1s, n_ref = [], [], [], 0
            for record in records:
                originals, recons = [], []
                for idx, window in enumerate(record.windows(config.window_len)):
                    if idx >= windows_per_record:
                        break
                    packet = frontend.process_window(window, idx)
                    recon = receiver.reconstruct(packet)
                    originals.append(window.astype(float) - center)
                    recons.append(recon.x_centered(center))
                original = np.concatenate(originals)
                reconstructed = np.concatenate(recons)
                score = reconstruction_fidelity(
                    original, reconstructed, record.header.fs_hz
                )
                sens.append(score.sensitivity)
                ppv.append(score.positive_predictivity)
                f1s.append(score.f1)
                n_ref += score.true_positives + score.false_negatives
            points.append(
                DiagnosticPoint(
                    cr_percent=float(cr),
                    method=method,
                    sensitivity=float(np.mean(sens)),
                    positive_predictivity=float(np.mean(ppv)),
                    f1=float(np.mean(f1s)),
                    n_reference_beats=n_ref,
                )
            )
    return DiagnosticData(points=tuple(points))
