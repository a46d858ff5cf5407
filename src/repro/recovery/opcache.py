"""Process-wide operator cache for CS recovery problems.

Every sweep point, benchmark workload and streaming session that shares a
``(sensing spec, m, n, basis)`` configuration solves against the *same*
composed operator ``A = Φ Ψ`` — and, through :class:`CsProblem`, the same
Gram matrix, operator norm and factorizations.  Building that state per
window (or even per receiver) is the dominant fixed cost of a sweep:
Φ construction, the dense ``n x n`` Ψ, the ``m x n`` composition and the
``O(n^3)`` ADMM factorization.

:class:`ProblemCache` amortizes all of it: a bounded process-wide LRU of
:class:`CsProblem` instances keyed by :class:`ProblemKey` (sensing spec ×
measurement count × window length × basis), with a second-level basis
memo so two cache cells at different compression ratios still share one
dense Ψ.  Construction is deterministic, so a cached problem is
bit-identical to a freshly built one (the differential test suite pins
this).

Cache **keying**: the full :class:`ProblemKey` tuple; two configs that
differ in any keyed field never share state.  **Invalidation**: entries
are evicted least-recently-used beyond ``maxsize``; there is no dirty
state to invalidate because problems are immutable once built (their lazy
factorizations are pure functions of the key).  ``clear()`` exists for
tests and long-lived processes that change workload shape.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.recovery.bsbl import BsblSettings
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import SensingSpec
from repro.wavelets.operators import SynthesisBasis, make_basis

__all__ = [
    "ProblemKey",
    "ProblemCache",
    "RecoveryEngineSettings",
    "PROBLEM_CACHE",
    "problem_for_config",
]


@dataclass(frozen=True)
class ProblemKey:
    """Identity of one composed operator: everything that determines A.

    Hashable and cheap, so it can key a process-wide cache and travel in
    benchmark artifacts.  ``m`` varies with the compression ratio while
    ``n``/``basis_spec`` usually stay fixed across a sweep — which is why
    the cache shares the dense Ψ across keys at the basis level.
    """

    sensing: SensingSpec
    m: int
    n: int
    basis_spec: str

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError("problem key needs 1 <= m <= n")

    @classmethod
    def from_config(cls, config) -> "ProblemKey":
        """The key for a front-end config (duck-typed to avoid an import
        cycle with :mod:`repro.core.config`)."""
        return cls(
            sensing=config.sensing,
            m=config.n_measurements,
            n=config.window_len,
            basis_spec=config.basis_spec,
        )


class ProblemCache:
    """Bounded LRU of :class:`CsProblem` instances, with hit accounting.

    Parameters
    ----------
    maxsize:
        Maximum retained problems.  A full paper sweep touches
        ``len(PAPER_CR_VALUES)`` distinct keys per basis, so the default
        comfortably holds an entire grid.

    Notes
    -----
    The cache is *not* thread-safe by design: the runtime fans work out
    over processes, and each worker process owns one cache instance (the
    same pattern as :func:`repro.runtime.stages.link_for`).
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._problems: "OrderedDict[ProblemKey, CsProblem]" = OrderedDict()
        self._bases: Dict[Tuple[int, str], SynthesisBasis] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._problems)

    def basis_for(self, n: int, basis_spec: str) -> SynthesisBasis:
        """The shared synthesis basis for ``(n, basis_spec)``.

        Second-level memo: different compression ratios (different ``m``)
        are distinct problem keys but share one Ψ, so sweeping the CR
        axis builds the dense basis exactly once.
        """
        bkey = (int(n), str(basis_spec))
        basis = self._bases.get(bkey)
        if basis is None:
            basis = make_basis(n, basis_spec)
            self._bases[bkey] = basis
        return basis

    def get(self, key: ProblemKey) -> CsProblem:
        """The cached problem for ``key``, building it on first use."""
        hit = self._problems.get(key)
        if hit is not None:
            self.hits += 1
            self._problems.move_to_end(key)
            return hit
        self.misses += 1
        phi = key.sensing.build(key.m, key.n)
        problem = CsProblem(phi, self.basis_for(key.n, key.basis_spec))
        self._problems[key] = problem
        while len(self._problems) > self.maxsize:
            self._problems.popitem(last=False)
        return problem

    def stats(self) -> Dict[str, float]:
        """Hit/miss accounting (on gateway snapshots and in ``perfbench/``)."""
        total = self.hits + self.misses
        return {
            "size": len(self._problems),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def clear(self) -> None:
        """Drop every entry and reset the counters (test isolation)."""
        self._problems.clear()
        self._bases.clear()
        self.hits = 0
        self.misses = 0


@dataclass(frozen=True)
class RecoveryEngineSettings:
    """Config flags for the cached recovery layer.

    Hashable so it can live inside :class:`repro.core.config.FrontEndConfig`.

    Attributes
    ----------
    warm_start_streams:
        Streaming sessions seed each window's solve from the previous
        window's recovered coefficients when that solution has already
        been applied (see ``docs/recovery.md`` for the determinism
        contract).  Default on.
    bsbl:
        EM knobs for the Bayesian recovery family
        (:mod:`repro.recovery.bsbl`); ignored by the convex methods.
    """

    warm_start_streams: bool = True
    bsbl: BsblSettings = field(default_factory=BsblSettings)


#: The per-process operator cache (one per worker, like the link cache).
PROBLEM_CACHE = ProblemCache()


def problem_for_config(config, cache: Optional[ProblemCache] = None) -> CsProblem:
    """The cached recovery problem for a front-end config."""
    key = ProblemKey.from_config(config)
    # Explicit None test: an *empty* cache is falsy (it has __len__), and
    # `cache or PROBLEM_CACHE` would silently redirect it to the singleton.
    return (PROBLEM_CACHE if cache is None else cache).get(key)

