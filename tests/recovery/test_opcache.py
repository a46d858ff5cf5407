"""The operator cache: keying, LRU behavior, and bit-identical reuse."""

import numpy as np
import pytest

from repro.core.config import DEFAULT_CONFIG, FrontEndConfig
from repro.recovery.opcache import (
    PROBLEM_CACHE,
    ProblemCache,
    ProblemKey,
    problem_for_config,
)
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import SensingSpec
from repro.wavelets.operators import make_basis


def _key(m=48, n=128, seed=0, basis="db4"):
    return ProblemKey(
        sensing=SensingSpec(seed=seed), m=m, n=n, basis_spec=basis
    )


class TestProblemKey:
    def test_from_config(self):
        config = FrontEndConfig(window_len=128, n_measurements=48)
        key = ProblemKey.from_config(config)
        assert key.m == 48
        assert key.n == 128
        assert key.basis_spec == config.basis_spec
        assert key.sensing == config.sensing

    def test_distinct_per_cr(self):
        config = FrontEndConfig(window_len=128, n_measurements=48)
        assert ProblemKey.from_config(config) != ProblemKey.from_config(
            config.with_measurements(64)
        )

    def test_hashable(self):
        assert len({_key(), _key(), _key(m=32)}) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            _key(m=0)
        with pytest.raises(ValueError):
            _key(m=200, n=128)


class TestProblemCache:
    def test_hit_returns_same_object(self):
        cache = ProblemCache()
        a = cache.get(_key())
        b = cache.get(_key())
        assert a is b
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_cached_equals_fresh_bitwise(self):
        """A cached problem is *bit-identical* to independent construction:
        the build path is deterministic, so sharing changes nothing."""
        cache = ProblemCache()
        key = _key()
        cached = cache.get(key)
        fresh = CsProblem(
            key.sensing.build(key.m, key.n), make_basis(key.n, key.basis_spec)
        )
        assert np.array_equal(cached.phi, fresh.phi)
        assert np.array_equal(cached.a, fresh.a)
        assert np.array_equal(cached.gram(), fresh.gram())
        assert np.array_equal(cached.admm_factor()[0], fresh.admm_factor()[0])
        assert cached.opnorm_sq() == fresh.opnorm_sq()

    def test_lru_eviction(self):
        cache = ProblemCache(maxsize=2)
        a = cache.get(_key(m=32))
        cache.get(_key(m=40))
        cache.get(_key(m=48))  # evicts m=32
        assert cache.stats()["size"] == 2
        again = cache.get(_key(m=32))  # rebuilt, not the evicted object
        assert again is not a

    def test_lru_recency_ordering(self):
        cache = ProblemCache(maxsize=2)
        a = cache.get(_key(m=32))
        cache.get(_key(m=40))
        assert cache.get(_key(m=32)) is a  # refreshes m=32
        cache.get(_key(m=48))  # evicts m=40, not m=32
        assert cache.get(_key(m=32)) is a

    def test_basis_shared_across_crs(self):
        """Grid cells differing only in m share one dense Ψ — the
        second-level memo that keeps a CR sweep's footprint linear in the
        number of *window lengths*, not grid cells."""
        cache = ProblemCache()
        p48 = cache.get(_key(m=48))
        p64 = cache.get(_key(m=64))
        assert p48.basis is p64.basis

    def test_dense_psi_built_once_across_crs(self):
        """Problems at CR 50 and 81 share one read-only Ψ and one CSR
        pair, and the shared Ψ is bit-equal to an independent build."""
        cache = ProblemCache()
        p50, p81 = (
            cache.get(ProblemKey.from_config(DEFAULT_CONFIG.for_cr(cr)))
            for cr in (50.0, 81.0)
        )
        assert p50.psi is p81.psi
        assert p50.basis.matvec_pair() is p81.basis.matvec_pair()
        assert not p50.psi.flags.writeable
        fresh = make_basis(DEFAULT_CONFIG.window_len, DEFAULT_CONFIG.basis_spec)
        assert np.array_equal(p50.psi, fresh.as_matrix())
        psi, psi_t = p50.basis.matvec_pair()
        assert np.array_equal(psi.toarray(), p50.psi)
        assert np.array_equal(psi_t.toarray(), p50.psi.T)

    def test_clear(self):
        cache = ProblemCache()
        cache.get(_key())
        cache.clear()
        assert cache.stats()["size"] == 0
        assert cache.stats()["hits"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemCache(maxsize=0)


class TestProblemForConfig:
    def test_uses_process_cache(self):
        config = FrontEndConfig(window_len=128, n_measurements=48)
        a = problem_for_config(config)
        b = problem_for_config(config)
        assert a is b
        assert PROBLEM_CACHE.get(ProblemKey.from_config(config)) is a

    def test_cached_matches_direct_build(self):
        config = FrontEndConfig(window_len=128, n_measurements=48)
        cached = problem_for_config(config)
        key = ProblemKey.from_config(config)
        direct = CsProblem(
            key.sensing.build(key.m, key.n), make_basis(key.n, key.basis_spec)
        )
        assert cached is not direct
        # Construction is deterministic: the values agree exactly.
        assert np.array_equal(cached.a, direct.a)

    def test_explicit_cache_overrides_singleton(self):
        cache = ProblemCache()
        config = FrontEndConfig(window_len=128, n_measurements=48)
        a = problem_for_config(config, cache=cache)
        assert cache.stats()["misses"] >= 1
        assert problem_for_config(config, cache=cache) is a


class TestMixedMethodSweepCounters:
    """A mixed convex+Bayesian sweep shares one problem per CR: the
    operator and memos built for the Eq. 1 kernel are the same objects
    BSBL reads ``A`` from, so adding a method to a sweep never rebuilds."""

    def test_operator_counters_across_mixed_sweep(self):
        from repro.recovery.bsbl import BsblSettings, solve_bsbl
        from repro.recovery.eq1 import solve_bpdn
        from repro.recovery.pdhg import PdhgSettings

        PROBLEM_CACHE.clear()
        rng = np.random.default_rng(0)
        base = FrontEndConfig(window_len=64, n_measurements=32)
        for m in (32, 16):
            config = base.with_measurements(m)
            problem = problem_for_config(config)
            for _ in range(3):
                y = problem.measure_signal(rng.standard_normal(64))
                solve_bpdn(
                    problem.phi, problem.basis, y, 1.0,
                    settings=PdhgSettings(max_iter=5), problem=problem,
                )
                solve_bsbl(
                    problem.phi, problem.basis, y, 1.0 / 12,
                    settings=BsblSettings(max_iter=5), problem=problem,
                )
            assert problem_for_config(config) is problem

        stats = PROBLEM_CACHE.stats()
        # One problem build per CR; every method run reuses it.
        assert stats["misses"] == 2
        assert stats["size"] == 2

