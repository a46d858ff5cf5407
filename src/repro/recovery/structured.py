"""Structured and reweighted sparse recovery.

The paper's introduction points at "model-based and similar structural
sparse recovery techniques" (its refs. [8], [9]) as the other lever for
cutting the measurement count.  This module implements the two standard
representatives so the benchmark suite can compare them against the hybrid
design's side-information lever:

* **Reweighted-L1 BPDN** (Candès-Wakin-Boyd): iterate BPDN, reweighting
  each coefficient by ``1 / (|alpha_i| + eps)`` so that large coefficients
  stop paying L1 penalty — sharpening the solution toward L0.  Works for
  both the plain and the box-constrained (hybrid) problem.

* **Tree-model IHT** (Baraniuk et al., model-based CS): iterative hard
  thresholding whose thresholding step projects onto *rooted wavelet
  trees* instead of unstructured k-sparse sets, exploiting the
  parent-child persistence of wavelet coefficients of piecewise-smooth
  signals like ECG.  The tree projection uses the standard greedy
  top-down selection (optimal projection is NP-ish; the greedy heuristic
  is what practical implementations use).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.recovery.bpdn import ball_block
from repro.recovery.hybrid import box_block
from repro.recovery.pdhg import PdhgSettings, solve_l1_constrained
from repro.recovery.problem import CsProblem
from repro.recovery.result import RecoveryResult
from repro.wavelets.operators import SynthesisBasis, WaveletBasis

__all__ = [
    "solve_reweighted_bpdn",
    "solve_reweighted_hybrid",
    "wavelet_tree_parents",
    "tree_project",
    "solve_model_iht",
]


def _reweighted(
    prob: CsProblem,
    blocks_builder,
    *,
    n_reweights: int,
    epsilon: float,
    settings: PdhgSettings,
    solver_name: str,
) -> RecoveryResult:
    if n_reweights < 1:
        raise ValueError("n_reweights must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    weights = np.ones(prob.n)
    result: Optional[RecoveryResult] = None
    alpha0 = None
    for _ in range(n_reweights):
        result = solve_l1_constrained(
            prob.n,
            blocks_builder(),
            settings=settings,
            synthesize=prob.basis.synthesize,
            alpha0=alpha0,
            weights=weights,
            solver_name=solver_name,
        )
        alpha0 = result.alpha
        scale = float(np.max(np.abs(result.alpha)))
        eps = epsilon * max(scale, 1e-12)
        weights = 1.0 / (np.abs(result.alpha) + eps)
        # Normalize so step sizing stays comparable across rounds.
        weights = weights / np.mean(weights)
    assert result is not None
    return result


def solve_reweighted_bpdn(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    sigma: float,
    *,
    n_reweights: int = 3,
    epsilon: float = 0.1,
    settings: PdhgSettings = PdhgSettings(),
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """Reweighted-L1 basis-pursuit denoising.

    Parameters
    ----------
    phi, basis, y, sigma:
        As in :func:`repro.recovery.bpdn.solve_bpdn`.
    n_reweights:
        Total solves (1 = plain BPDN).
    epsilon:
        Reweighting floor, relative to the largest coefficient magnitude.
    """
    prob = problem if problem is not None else CsProblem(phi, basis)
    y = np.asarray(y, dtype=float)
    return _reweighted(
        prob,
        lambda: [ball_block(prob, y, sigma)],
        n_reweights=n_reweights,
        epsilon=epsilon,
        settings=settings,
        solver_name="pdhg-rw-bpdn",
    )


def solve_reweighted_hybrid(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    sigma: float,
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    n_reweights: int = 3,
    epsilon: float = 0.1,
    settings: PdhgSettings = PdhgSettings(),
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """Reweighted-L1 solve of the paper's Eq. 1 (box + ball constraints).

    Stacks the reweighting loop on top of the hybrid problem — combining
    the paper's side-information lever with the enhanced-recovery lever
    its introduction mentions.
    """
    prob = problem if problem is not None else CsProblem(phi, basis)
    y = np.asarray(y, dtype=float)
    return _reweighted(
        prob,
        lambda: [
            ball_block(prob, y, sigma),
            box_block(prob.basis, lower, upper),
        ],
        n_reweights=n_reweights,
        epsilon=epsilon,
        settings=settings,
        solver_name="pdhg-rw-hybrid",
    )


def wavelet_tree_parents(n: int, levels: int) -> np.ndarray:
    """Parent index of each flat coefficient, shape ``(n,)`` (-1 = root).

    Layout follows :func:`repro.wavelets.dwt.coeff_slices`:
    ``[a_J | d_J | d_{J-1} | ... | d_1]``.  Approximation coefficients and
    the coarsest detail band are roots; detail coefficient ``i`` of level
    ``j`` has parent ``i // 2`` of level ``j+1`` (one scale coarser).
    """
    from repro.wavelets.dwt import coeff_slices

    slices = coeff_slices(n, levels)
    parents = np.full(n, -1, dtype=np.int64)
    # slices[0] = approx (roots); slices[1] = d_J (roots);
    # slices[k >= 2] children of slices[k-1].
    for k in range(2, len(slices)):
        child = slices[k]
        parent = slices[k - 1]
        for i in range(child.stop - child.start):
            parents[child.start + i] = parent.start + i // 2
    return parents


def tree_project(
    alpha: np.ndarray, k: int, parents: np.ndarray
) -> np.ndarray:
    """Greedy projection onto k-sparse rooted-subtree supports.

    Selects coefficients in decreasing magnitude, admitting one only when
    its parent chain is already selected (roots are always admissible);
    passes over the candidate list until ``k`` are kept or no admissible
    candidate remains.  Returns ``alpha`` with the complement zeroed (same shape).
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != parents.shape:
        raise ValueError("alpha and parents must have equal length")
    if not 1 <= k <= alpha.size:
        raise ValueError(f"k must be in [1, {alpha.size}]")
    order = np.argsort(np.abs(alpha))[::-1]
    selected = np.zeros(alpha.size, dtype=bool)
    kept = 0
    changed = True
    while kept < k and changed:
        changed = False
        for idx in order:
            if kept >= k:
                break
            if selected[idx] or alpha[idx] == 0.0:
                continue
            parent = parents[idx]
            if parent < 0 or selected[parent]:
                selected[idx] = True
                kept += 1
                changed = True
    out = np.zeros_like(alpha)
    out[selected] = alpha[selected]
    return out


def solve_model_iht(
    phi: np.ndarray,
    basis: WaveletBasis,
    y: np.ndarray,
    k: int,
    *,
    max_iter: int = 300,
    tol: float = 1e-7,
    step: Optional[float] = None,
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """Model-based IHT with a rooted-wavelet-tree sparsity model.

    Identical to :func:`repro.recovery.greedy.solve_iht` except the
    thresholding step is :func:`tree_project`, so the iterates respect the
    parent-child structure of wavelet-compressible signals.

    Requires a :class:`~repro.wavelets.operators.WaveletBasis` (the tree
    is defined by its subband layout).
    """
    if not isinstance(basis, WaveletBasis):
        raise TypeError("model IHT needs a WaveletBasis (the tree model)")
    prob = problem if problem is not None else CsProblem(phi, basis)
    y = np.asarray(y, dtype=float)
    if y.shape != (prob.m,):
        raise ValueError(f"expected {prob.m} measurements")
    if not 1 <= k <= prob.m:
        raise ValueError(f"sparsity k must be in [1, m={prob.m}]")
    parents = wavelet_tree_parents(prob.n, basis.levels)
    a = prob.a
    mu = step if step is not None else 1.0 / prob.opnorm_sq()
    if mu <= 0:
        raise ValueError("step must be positive")
    alpha = np.zeros(prob.n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = a.T @ (a @ alpha - y)
        alpha_new = tree_project(alpha - mu * grad, k, parents)
        change = float(np.linalg.norm(alpha_new - alpha))
        scale = max(float(np.linalg.norm(alpha_new)), 1.0)
        alpha = alpha_new
        if change <= tol * scale:
            converged = True
            break
    residual = float(np.linalg.norm(a @ alpha - y))
    return RecoveryResult(
        alpha=alpha,
        x=prob.basis.synthesize(alpha),
        iterations=iterations,
        converged=converged,
        residual_norm=residual,
        objective=float(np.sum(np.abs(alpha))),
        solver="model-iht",
        info={"k": float(k), "step": float(mu)},
    )
