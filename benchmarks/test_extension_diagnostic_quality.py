"""Extension benchmark: diagnostic quality (QRS detection) vs CR.

Goes beyond the paper's PRD/SNR proxies and measures the clinical end
goal directly: beat-detection fidelity on the reconstructions.  The
expected Fig. 7-like shape — hybrid keeps the detector working deep into
the >90 % CR regime where normal CS destroys the QRS complexes — is
asserted.
"""

from baselines import run_diagnostic
from repro.experiments.runner import ExperimentScale

SCALE = ExperimentScale(
    record_names=("100", "103", "119", "208"),
    duration_s=20.0,
    max_windows=None,
)


def test_extension_diagnostic_quality(benchmark, table, emit_result):
    data = benchmark.pedantic(
        lambda: run_diagnostic(scale=SCALE), rounds=1, iterations=1
    )

    assert data.hybrid_dominates()
    hybrid = data.series("hybrid")
    normal = data.series("normal")
    by_cr = {p.cr_percent: p for p in hybrid}
    # Hybrid reconstructions keep beats detectable deep into the collapse
    # regime (94% CR)...
    assert by_cr[94.0].f1 > 0.9
    # ...and still hold a clear margin at the extreme 97% point, where
    # normal CS has lost a large fraction of the beats.
    assert hybrid[-1].f1 > normal[-1].f1 + 0.1

    rows = []
    for h, n in zip(hybrid, normal):
        rows.append(
            (
                f"{h.cr_percent:.0f}",
                f"{h.sensitivity:.3f}",
                f"{h.positive_predictivity:.3f}",
                f"{h.f1:.3f}",
                f"{n.sensitivity:.3f}",
                f"{n.positive_predictivity:.3f}",
                f"{n.f1:.3f}",
            )
        )
    emit_result(
        "extension_diagnostic_quality",
        "Extension — QRS-detection fidelity vs CR (hybrid | normal CS)",
        table(
            ["CR %", "hyb Se", "hyb +P", "hyb F1", "CS Se", "CS +P", "CS F1"],
            rows,
        ),
    )
