"""Reference code that only the ablation and extension benches and tests run.

No receiver, runtime or example calls any of this; it lives next to the
benches that rank, sweep and score with it:

* **Greedy baselines** (OMP, CoSaMP, IHT).  The paper's introduction
  situates hybrid CS against "model-based and similar structural sparse
  recovery techniques" that squeeze more out of a fixed measurement
  budget.  Greedy solvers need an explicit sparsity level ``k`` and
  degrade faster than convex recovery on *compressible* (not exactly
  sparse) ECG, which is the paper's motivation for convex recovery plus
  side information.  ``test_ablation_solver.py`` ranks them.
* **FISTA** for the unconstrained LASSO
  ``min 0.5 ||A alpha - y||^2 + lam ||alpha||_1`` with Nesterov
  acceleration: an independent cross-check of the PDHG solutions (for
  matched ``lam``/``sigma`` pairs the solution paths agree) and a third
  convex entry in the solver ablation.
* **The Donoho-Tanner phase transition.**  The introduction anchors on
  the sampling bound ``m = s log(n/s)`` as *the* obstacle to analog CS:
  every extra required measurement is an extra RMPI channel.  In the
  ``(delta, rho) = (m/n, s/m)`` plane, equality-constrained basis
  pursuit succeeds with overwhelming probability below a curve and fails
  above it.  :func:`success_probability` estimates the success rate at
  one grid point by Monte-Carlo; :func:`empirical_transition` sweeps
  ``delta`` and locates the empirical 50 % crossing, the curve
  ``test_extension_phase_transition.py`` prints.
* **Arithmetic coding.**  The paper commits to Huffman coding for the
  low-resolution stream (§III-B), which pays up to one bit of redundancy
  per *token*.  Arithmetic coding reaches the entropy asymptotically at
  the cost of multiplies the paper's node class avoids, so the gap is a
  design quantity worth measuring (``test_ablation_entropy_coder.py``).
* **Diagnostic quality.**  The paper scores reconstructions by PRD/SNR
  (§IV).  :func:`run_diagnostic` measures the end goal instead: QRS
  detection on the reconstructions against the beats found on the
  original, for both methods across the CR axis
  (``test_extension_diagnostic_quality.py``).

Benches import this module as ``from baselines import ...`` (pytest puts
``benchmarks/`` on the path); tests as ``from benchmarks.baselines
import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.coding.bitstream import BitReader, BitWriter
from repro.core.codebooks import CodebookKey
from repro.core.config import FrontEndConfig
from repro.experiments.runner import ExperimentScale, active_scale
from repro.metrics.diagnostic import reconstruction_fidelity
from repro.recovery.eq1 import solve_bpdn
from repro.recovery.pdhg import PdhgSettings
from repro.recovery.problem import CsProblem
from repro.recovery.prox import soft_threshold
from repro.recovery.result import RecoveryResult
from repro.runtime.stages import link_for_params
from repro.runtime.task import CodebookSpec
from repro.sensing.matrices import gaussian_matrix
from repro.wavelets.operators import IdentityBasis, SynthesisBasis

__all__ = [
    "ArithmeticCodec",
    "ArithmeticModel",
    "DiagnosticData",
    "DiagnosticPoint",
    "TransitionPoint",
    "empirical_transition",
    "lambda_max",
    "run_diagnostic",
    "solve_cosamp",
    "solve_fista",
    "solve_iht",
    "solve_omp",
    "success_probability",
]


# ---------------------------------------------------------------------------
# Greedy baselines


def _check_inputs(prob: CsProblem, y: np.ndarray, k: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (prob.m,):
        raise ValueError(f"expected {prob.m} measurements")
    if not 1 <= k <= prob.m:
        raise ValueError(f"sparsity k must be in [1, m={prob.m}]")
    return y


def _ls_on_support(a: np.ndarray, y: np.ndarray, support: np.ndarray) -> np.ndarray:
    coef, *_ = np.linalg.lstsq(a[:, support], y, rcond=None)
    return coef


def solve_omp(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    k: int,
    *,
    tol: float = 1e-8,
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """Orthogonal matching pursuit with target sparsity ``k``.

    Greedily adds the column most correlated with the residual and
    re-solves least squares on the support; stops early when the residual
    norm falls below ``tol * ||y||``.
    """
    prob = problem if problem is not None else CsProblem(phi, basis)
    y = _check_inputs(prob, y, k)
    a = prob.a
    residual = y.copy()
    support: list = []
    y_norm = max(float(np.linalg.norm(y)), 1e-30)
    iterations = 0
    for iterations in range(1, k + 1):
        scores = np.abs(a.T @ residual)
        scores[support] = -np.inf
        support.append(int(np.argmax(scores)))
        idx = np.asarray(support)
        coef = _ls_on_support(a, y, idx)
        residual = y - a[:, idx] @ coef
        if np.linalg.norm(residual) <= tol * y_norm:
            break
    alpha = np.zeros(prob.n)
    alpha[np.asarray(support)] = coef
    return RecoveryResult(
        alpha=alpha,
        x=prob.basis.synthesize(alpha),
        iterations=iterations,
        converged=True,
        residual_norm=float(np.linalg.norm(residual)),
        objective=float(np.sum(np.abs(alpha))),
        solver="omp",
        info={"k": float(k)},
    )


def solve_cosamp(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    k: int,
    *,
    max_iter: int = 100,
    tol: float = 1e-7,
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """Compressive sampling matching pursuit (Needell & Tropp 2009)."""
    prob = problem if problem is not None else CsProblem(phi, basis)
    y = _check_inputs(prob, y, k)
    a = prob.a
    alpha = np.zeros(prob.n)
    residual = y.copy()
    y_norm = max(float(np.linalg.norm(y)), 1e-30)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        proxy = np.abs(a.T @ residual)
        omega = np.argsort(proxy)[::-1][: 2 * k]
        candidate = np.union1d(omega, np.nonzero(alpha)[0]).astype(int, copy=False)
        coef = _ls_on_support(a, y, candidate)
        # Prune to the k largest.
        keep = np.argsort(np.abs(coef))[::-1][:k]
        alpha_new = np.zeros(prob.n)
        alpha_new[candidate[keep]] = coef[keep]
        residual = y - a @ alpha_new
        change = float(np.linalg.norm(alpha_new - alpha))
        alpha = alpha_new
        if np.linalg.norm(residual) <= tol * y_norm or change <= tol:
            converged = True
            break
    return RecoveryResult(
        alpha=alpha,
        x=prob.basis.synthesize(alpha),
        iterations=iterations,
        converged=converged,
        residual_norm=float(np.linalg.norm(residual)),
        objective=float(np.sum(np.abs(alpha))),
        solver="cosamp",
        info={"k": float(k)},
    )


def solve_iht(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    k: int,
    *,
    max_iter: int = 300,
    step: Optional[float] = None,
    tol: float = 1e-7,
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """Iterative hard thresholding with fixed sparsity ``k``.

    Uses step ``1/||A||^2`` by default, which guarantees monotone descent
    of the data term for our normalized ensembles.
    """
    prob = problem if problem is not None else CsProblem(phi, basis)
    y = _check_inputs(prob, y, k)
    a = prob.a
    mu = step if step is not None else 1.0 / prob.opnorm_sq()
    if mu <= 0:
        raise ValueError("step must be positive")
    alpha = np.zeros(prob.n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = a.T @ (a @ alpha - y)
        updated = alpha - mu * grad
        keep = np.argsort(np.abs(updated))[::-1][:k]
        alpha_new = np.zeros(prob.n)
        alpha_new[keep] = updated[keep]
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
        solver="iht",
        info={"k": float(k), "step": float(mu)},
    )


# ---------------------------------------------------------------------------
# FISTA (LASSO)


def lambda_max(problem: CsProblem, y: np.ndarray) -> float:
    """Smallest ``lam`` for which the LASSO solution is exactly zero
    (``||A^T y||_inf``); useful for scaling regularization sweeps."""
    return float(np.max(np.abs(problem.adjoint(np.asarray(y, dtype=float)))))


def solve_fista(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    lam: float,
    *,
    max_iter: int = 2000,
    tol: float = 1e-6,
    problem: Optional[CsProblem] = None,
) -> RecoveryResult:
    """Accelerated proximal-gradient solve of the LASSO.

    Parameters
    ----------
    phi, basis, y:
        Measurement setup, as in :mod:`repro.recovery`.
    lam:
        L1 penalty weight (must be positive; see :func:`lambda_max`).
    max_iter, tol:
        Iteration cap and relative-change stopping tolerance.
    problem:
        Optional pre-built :class:`CsProblem`.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    prob = problem if problem is not None else CsProblem(phi, basis)
    y = np.asarray(y, dtype=float)
    if y.shape != (prob.m,):
        raise ValueError(f"expected {prob.m} measurements")

    step = 1.0 / prob.opnorm_sq()
    alpha = np.zeros(prob.n)
    momentum = alpha.copy()
    t_k = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = prob.adjoint(prob.forward(momentum) - y)
        alpha_new = soft_threshold(momentum - step * grad, step * lam)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
        momentum = alpha_new + ((t_k - 1.0) / t_next) * (alpha_new - alpha)
        change = float(np.linalg.norm(alpha_new - alpha))
        scale = max(float(np.linalg.norm(alpha_new)), 1.0)
        alpha = alpha_new
        t_k = t_next
        if change <= tol * scale:
            converged = True
            break

    residual = float(np.linalg.norm(prob.forward(alpha) - y))
    return RecoveryResult(
        alpha=alpha,
        x=prob.basis.synthesize(alpha),
        iterations=iterations,
        converged=converged,
        residual_norm=residual,
        objective=float(np.sum(np.abs(alpha))),
        solver="fista-lasso",
        info={"lam": float(lam), "step": float(step)},
    )


# ---------------------------------------------------------------------------
# Empirical phase transition


def _random_instance(
    n: int, m: int, s: int, rng: np.random.Generator, trial_seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    phi = gaussian_matrix(m, n, seed=trial_seed)
    alpha = np.zeros(n)
    support = rng.choice(n, size=s, replace=False)
    alpha[support] = rng.standard_normal(s)
    return phi, alpha, phi @ alpha


def success_probability(
    n: int,
    m: int,
    s: int,
    *,
    n_trials: int = 10,
    tolerance: float = 1e-2,
    seed: int = 0,
    settings: Optional[PdhgSettings] = None,
) -> float:
    """Monte-Carlo success rate of basis pursuit at one ``(n, m, s)``.

    A trial succeeds when the relative recovery error is below
    ``tolerance``.  Gaussian ensembles and exactly sparse vectors — the
    canonical phase-transition setting.
    """
    if not 1 <= s <= m <= n:
        raise ValueError("need 1 <= s <= m <= n")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    basis = IdentityBasis(n)
    solver_settings = settings or PdhgSettings(max_iter=3000, tol=1e-6)
    rng = np.random.default_rng(seed)
    successes = 0
    for trial in range(n_trials):
        phi, alpha, y = _random_instance(n, m, s, rng, seed * 1000 + trial)
        result = solve_bpdn(
            phi, basis, y, sigma=1e-9, settings=solver_settings
        )
        err = np.linalg.norm(result.alpha - alpha) / max(
            np.linalg.norm(alpha), 1e-12
        )
        if err < tolerance:
            successes += 1
    return successes / n_trials


@dataclass(frozen=True)
class TransitionPoint:
    """One delta column of the empirical transition."""

    delta: float
    m: int
    rho_star: float  # empirical 50% crossing of rho = s/m
    success_at: Tuple[Tuple[float, float], ...]  # (rho, success rate)


def empirical_transition(
    n: int = 64,
    deltas: Sequence[float] = (0.25, 0.5, 0.75),
    rhos: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
    *,
    n_trials: int = 8,
    seed: int = 1,
) -> List[TransitionPoint]:
    """Sweep the (delta, rho) grid and locate the 50 % crossings.

    Small ``n`` keeps this minutes-fast; the transition's location is
    already within a few percent of its asymptote at n = 64.
    """
    if n < 8:
        raise ValueError("n too small for a meaningful transition")
    points: List[TransitionPoint] = []
    for delta in deltas:
        m = max(1, int(round(delta * n)))
        rates = []
        for rho in rhos:
            s = max(1, int(round(rho * m)))
            if s > m:
                rates.append((float(rho), 0.0))
                continue
            rate = success_probability(
                n, m, s, n_trials=n_trials, seed=seed
            )
            rates.append((float(rho), rate))
        # 50% crossing by linear interpolation on the measured curve
        # (p0 >= 0.5 > p1, so p0 > p1 and the slope is never zero).
        rho_star = rates[-1][0]
        for (r0, p0), (r1, p1) in zip(rates[:-1], rates[1:]):
            if p0 >= 0.5 > p1:
                rho_star = r0 + (p0 - 0.5) * (r1 - r0) / (p0 - p1)
                break
        else:
            if rates and rates[0][1] < 0.5:
                rho_star = 0.0
        points.append(
            TransitionPoint(
                delta=float(delta),
                m=m,
                rho_star=float(rho_star),
                success_at=tuple(rates),
            )
        )
    return points


# ---------------------------------------------------------------------------
# Arithmetic coding
#
# A classic 32-bit integer range coder with carry-free renormalized
# intervals (the Witten-Neal-Cleary construction): encoder and decoder walk
# the same cumulative-frequency table, so any trained token distribution
# (including the run-length tokens and the ESCAPE symbol) plugs in directly.

Symbol = Hashable

_CODE_BITS = 32
_TOP = (1 << _CODE_BITS) - 1
_HALF = 1 << (_CODE_BITS - 1)
_QUARTER = 1 << (_CODE_BITS - 2)
_THREE_QUARTERS = _HALF + _QUARTER
#: Total frequency mass is capped so `range * cum` fits in 64 bits.
_MAX_TOTAL = 1 << 16


@dataclass(frozen=True)
class ArithmeticModel:
    """Frozen cumulative-frequency model over a symbol alphabet.

    Built from (unnormalized) frequencies; counts are rescaled to a
    16-bit total, flooring every symbol at one count so the coder can
    always represent any trained symbol.
    """

    symbols: Tuple[Symbol, ...]
    cumulative: Tuple[int, ...]  # len(symbols) + 1, starting at 0

    @staticmethod
    def from_frequencies(frequencies: Mapping[Symbol, float]) -> "ArithmeticModel":
        """Quantize a frequency table into a coder-ready model."""
        if not frequencies:
            raise ValueError("frequency table is empty")
        items = sorted(frequencies.items(), key=lambda kv: str(kv[0]))
        total = float(sum(f for _, f in items))
        if total <= 0:
            raise ValueError("frequencies must sum to a positive value")
        budget = _MAX_TOTAL - len(items)  # reserve 1 per symbol
        counts: List[int] = []
        for _, freq in items:
            if freq < 0:
                raise ValueError("frequencies cannot be negative")
            counts.append(1 + int(budget * freq / total))
        cumulative = [0]
        for c in counts:
            cumulative.append(cumulative[-1] + c)
        return ArithmeticModel(
            symbols=tuple(s for s, _ in items), cumulative=tuple(cumulative)
        )

    @property
    def total(self) -> int:
        """Total frequency mass."""
        return self.cumulative[-1]

    def interval(self, symbol: Symbol) -> Tuple[int, int]:
        """Half-open cumulative interval of a symbol."""
        try:
            idx = self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"symbol {symbol!r} not in model") from None
        return self.cumulative[idx], self.cumulative[idx + 1]

    def symbol_for(self, cum_value: int) -> Tuple[Symbol, int, int]:
        """The symbol whose interval contains ``cum_value`` (binary search)."""
        lo, hi = 0, len(self.symbols) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.cumulative[mid + 1] <= cum_value:
                lo = mid + 1
            else:
                hi = mid
        return self.symbols[lo], self.cumulative[lo], self.cumulative[lo + 1]


class ArithmeticCodec:
    """Encoder/decoder over a fixed :class:`ArithmeticModel`."""

    def __init__(self, model: ArithmeticModel) -> None:
        if model.total >= _QUARTER:
            raise ValueError("model total too large for the coder precision")
        self.model = model

    # ------------------------------------------------------------------
    def encode(self, symbols: Sequence[Symbol]) -> Tuple[bytes, int]:
        """Encode a symbol sequence; returns ``(payload, bit_length)``."""
        low = 0
        high = _TOP
        pending = 0
        writer = BitWriter()

        def emit(bit: int) -> None:
            nonlocal pending
            writer.write_bit(bit)
            while pending:
                writer.write_bit(1 - bit)
                pending -= 1

        total = self.model.total
        for sym in symbols:
            c_lo, c_hi = self.model.interval(sym)
            span = high - low + 1
            high = low + span * c_hi // total - 1
            low = low + span * c_lo // total
            while True:
                if high < _HALF:
                    emit(0)
                elif low >= _HALF:
                    emit(1)
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    pending += 1
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low = low * 2
                high = high * 2 + 1
        # Flush: disambiguate the final interval.
        pending += 1
        emit(0 if low < _QUARTER else 1)
        return writer.getvalue(), writer.bit_length

    def decode(
        self, payload: bytes, n_symbols: int, bit_length: int | None = None
    ) -> List[Symbol]:
        """Decode exactly ``n_symbols`` symbols."""
        if n_symbols < 0:
            raise ValueError("n_symbols cannot be negative")
        reader = BitReader(payload, bit_length)

        def next_bit() -> int:
            try:
                return reader.read_bit()
            except EOFError:
                return 0  # the stream is padded with zeros conceptually

        low = 0
        high = _TOP
        value = 0
        for _ in range(_CODE_BITS):
            value = (value << 1) | next_bit()

        total = self.model.total
        out: List[Symbol] = []
        for _ in range(n_symbols):
            span = high - low + 1
            cum = ((value - low + 1) * total - 1) // span
            sym, c_lo, c_hi = self.model.symbol_for(cum)
            out.append(sym)
            high = low + span * c_hi // total - 1
            low = low + span * c_lo // total
            while True:
                if high < _HALF:
                    pass
                elif low >= _HALF:
                    low -= _HALF
                    high -= _HALF
                    value -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    low -= _QUARTER
                    high -= _QUARTER
                    value -= _QUARTER
                else:
                    break
                low = low * 2
                high = high * 2 + 1
                value = value * 2 + next_bit()
        return out

    def mean_bits_per_symbol(self, frequencies: Mapping[Symbol, float]) -> float:
        """Expected code length under the model for a true distribution
        (cross-entropy in bits) — the analytic counterpart of measuring
        an encoded stream."""
        total_freq = float(sum(frequencies.values()))
        if total_freq <= 0:
            raise ValueError("frequencies sum to zero")
        bits = 0.0
        model_total = self.model.total
        for sym, freq in frequencies.items():
            c_lo, c_hi = self.model.interval(sym)
            p_model = (c_hi - c_lo) / model_total
            bits += (freq / total_freq) * -math.log2(p_model)
        return bits


# ---------------------------------------------------------------------------
# Diagnostic quality (QRS detection) vs CR
#
# The expected shape mirrors Fig. 7: hybrid reconstructions keep the
# detector working deep into the >90 % CR regime where normal CS has
# destroyed the QRS complexes.


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
