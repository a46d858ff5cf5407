"""Ablation: recovery algorithm (DESIGN.md §5).

The paper solves Eq. 1 with a conic solver; we use PDHG.  This ablation
runs structurally different solvers on identical windows/measurements:
PDHG-BPDN vs ADMM-BPDN (must agree — same convex program), FISTA-LASSO
(penalized formulation), and the greedy baselines (OMP/CoSaMP/IHT) that
motivate convex recovery on compressible ECG.
"""

import numpy as np
from baselines import lambda_max, solve_cosamp, solve_fista, solve_iht, solve_omp

from repro.metrics.quality import snr_db
from repro.recovery import CsProblem, PdhgSettings, solve_bpdn, solve_bpdn_admm
from repro.sensing.matrices import bernoulli_matrix
from repro.signals.database import load_record
from repro.wavelets.operators import WaveletBasis

N, M = 512, 192  # 62.5% CR: solidly in every solver's working range


def _windows():
    out = []
    for name in ("100", "103"):
        record = load_record(name, duration_s=10.0)
        x = record.adu[:N].astype(float) - 1024
        out.append(x)
    return out


def _run():
    basis = WaveletBasis(N, "db4")
    phi = bernoulli_matrix(M, N, seed=2015)
    prob = CsProblem(phi, basis)
    sigma = 1e-3
    results = {}
    for x in _windows():
        y = phi @ x
        k = max(8, M // 6)
        runs = {
            "pdhg-bpdn": solve_bpdn(
                phi, basis, y, sigma, problem=prob,
                settings=PdhgSettings(max_iter=3000, tol=1e-5),
            ),
            "admm-bpdn": solve_bpdn_admm(
                phi, basis, y, sigma, problem=prob, max_iter=3000
            ),
            "fista-lasso": solve_fista(
                phi, basis, y, 0.01 * lambda_max(prob, y),
                problem=prob, max_iter=3000,
            ),
            "omp": solve_omp(phi, basis, y, k, problem=prob),
            "cosamp": solve_cosamp(phi, basis, y, k, problem=prob),
            "iht": solve_iht(phi, basis, y, k, problem=prob),
        }
        for name, r in runs.items():
            results.setdefault(name, []).append(snr_db(x, r.x))
    return {name: float(np.mean(v)) for name, v in results.items()}


def test_ablation_solver(benchmark, table, emit_result):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    # PDHG and ADMM solve the same program: near-identical quality.
    assert abs(results["pdhg-bpdn"] - results["admm-bpdn"]) < 1.5
    # Convex recovery beats greedy on compressible ECG at this budget.
    best_greedy = max(results["omp"], results["cosamp"], results["iht"])
    assert results["pdhg-bpdn"] > best_greedy - 1.0

    rows = [(name, f"{snr:.2f}") for name, snr in sorted(results.items())]
    emit_result(
        "ablation_solver",
        "Ablation — recovery algorithm at 62.5% CS CR (mean SNR dB, normal CS)",
        table(["solver", "SNR (dB)"], rows),
    )
