"""Extension benchmark: the L1 phase transition behind the paper's intro.

The intro's ``m = s log(n/s)`` bound is the geometry of the Donoho-Tanner
phase transition.  This bench measures the empirical transition on small
Gaussian instances and connects it to the Fig. 7 observation: ECG's
effective wavelet sparsity (s/n ≈ 0.07-0.15 for the energy that matters)
crosses the curve exactly in the 85-95 % CR band where normal CS collapses
— while the hybrid design's box constraint sidesteps the transition
entirely.
"""

from baselines import empirical_transition


def _run():
    return empirical_transition(
        n=64,
        deltas=(0.125, 0.25, 0.5, 0.75),
        rhos=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8),
        n_trials=8,
    )


def test_extension_phase_transition(benchmark, table, emit_result):
    points = benchmark.pedantic(_run, rounds=1, iterations=1)

    # The transition must be (weakly) increasing in delta — the defining
    # shape of the Donoho-Tanner curve.
    rho_stars = [p.rho_star for p in points]
    assert all(b >= a - 0.05 for a, b in zip(rho_stars[:-1], rho_stars[1:]))
    # At delta = 0.5 the asymptotic transition sits near rho ~ 0.39;
    # small-n estimates land in a generous band around it.
    at_half = next(p for p in points if p.delta == 0.5)
    assert 0.2 < at_half.rho_star < 0.7

    rows = [
        (
            f"{p.delta:.3f}",
            p.m,
            f"{p.rho_star:.2f}",
            " ".join(f"{rate:.1f}" for _, rate in p.success_at),
        )
        for p in points
    ]
    emit_result(
        "extension_phase_transition",
        "Extension — empirical L1 phase transition (n=64, Gaussian)"
        "\nsuccess rates across rho = " +
        ", ".join(f"{r:.1f}" for r, _ in points[0].success_at),
        table(["delta=m/n", "m", "rho* (50%)", "success by rho"], rows),
    )
