"""The operator cache: keying, LRU behavior, and bit-identical reuse."""

import numpy as np
import pytest

from repro.core.config import FrontEndConfig
from repro.recovery.opcache import (
    PROBLEM_CACHE,
    ProblemCache,
    ProblemKey,
    RecoveryEngineSettings,
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

    def test_clear(self):
        cache = ProblemCache()
        cache.get(_key())
        cache.clear()
        assert cache.stats()["size"] == 0
        assert cache.stats()["hits"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemCache(maxsize=0)


class TestResize:
    """The ``--cache-size`` knob: live rebound of the LRU limit."""

    def test_shrink_evicts_oldest_first(self):
        cache = ProblemCache(maxsize=4)
        kept = cache.get(_key(m=48))
        cache.get(_key(m=40))  # oldest after the m=48 refresh below
        cache.get(_key(m=48))  # refresh recency of m=48
        cache.resize(1)
        assert cache.stats()["size"] == 1
        assert cache.get(_key(m=48)) is kept  # survivor is the MRU entry

    def test_shrink_evicts_operator_sets_too(self):
        from repro.backend import BackendSettings

        cache = ProblemCache(maxsize=4)
        basis = make_basis(128, "db4")
        problems = [
            CsProblem(SensingSpec(seed=0).build(m, 128), basis)
            for m in (32, 40, 48)
        ]
        for problem in problems:
            cache.operators(problem, BackendSettings())
        cache.resize(1)
        assert cache.stats()["operator_sets"] == 1

    def test_grow_keeps_entries(self):
        cache = ProblemCache(maxsize=2)
        a = cache.get(_key(m=32))
        b = cache.get(_key(m=40))
        cache.resize(8)
        assert cache.get(_key(m=32)) is a
        assert cache.get(_key(m=40)) is b

    def test_counters_survive_resize(self):
        cache = ProblemCache(maxsize=2)
        cache.get(_key())
        cache.get(_key())  # one hit
        cache.resize(1)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_validation(self):
        cache = ProblemCache()
        with pytest.raises(ValueError):
            cache.resize(0)


class TestProblemForConfig:
    def test_uses_process_cache(self):
        config = FrontEndConfig(window_len=128, n_measurements=48)
        a = problem_for_config(config)
        b = problem_for_config(config)
        assert a is b
        assert PROBLEM_CACHE.get(ProblemKey.from_config(config)) is a

    def test_flag_off_builds_fresh(self):
        config = FrontEndConfig(
            window_len=128,
            n_measurements=48,
            recovery=RecoveryEngineSettings(cache_problems=False),
        )
        a = problem_for_config(config)
        b = problem_for_config(config)
        assert a is not b
        # Same operating point, so the *values* still agree exactly.
        assert np.array_equal(a.a, b.a)

    def test_explicit_cache_overrides_singleton(self):
        cache = ProblemCache()
        config = FrontEndConfig(window_len=128, n_measurements=48)
        a = problem_for_config(config, cache=cache)
        assert cache.stats()["misses"] >= 1
        assert problem_for_config(config, cache=cache) is a


class TestMixedMethodSweepCounters:
    """A mixed convex+Bayesian sweep shares one operator set per
    (problem, backend, precision): the operator stack and memos built for
    ADMM are the same objects BSBL reads ``A`` from, so adding a method
    to a sweep costs operator *hits*, never rebuilds."""

    def test_operator_counters_across_mixed_sweep(self):
        from repro.backend import BackendSettings
        from repro.recovery.batched import recover_windows

        PROBLEM_CACHE.clear()
        rng = np.random.default_rng(0)
        base = FrontEndConfig(window_len=64, n_measurements=32)
        problems = []
        for m in (32, 16):
            config = base.with_measurements(m)
            problem = problem_for_config(config)
            problems.append(problem)
            ys = [
                problem.measure_signal(rng.standard_normal(64))
                for _ in range(3)
            ]
            recover_windows(problem, ys, method="admm", sigma=1.0, max_iter=5)
            recover_windows(
                problem, ys, method="bsbl", noise_var=1.0 / 12, max_iter=5
            )
            recover_windows(problem, ys, method="fista", lam=1.0, max_iter=5)

        stats = PROBLEM_CACHE.stats()
        # One problem build per CR; every method run reuses it.
        assert stats["misses"] == 2
        assert stats["size"] == 2
        # One operator set per (problem, backend): first method misses,
        # the other two hit — per CR.
        assert stats["operator_sets"] == 2
        assert stats["operator_misses"] == 2
        assert stats["operator_hits"] == 4

        # The exact-path set exposes the problem's own Gram memo, not a
        # copy of it.
        for problem in problems:
            ops = PROBLEM_CACHE.operators(problem, BackendSettings())
            assert ops.gram() is problem.gram()
        assert PROBLEM_CACHE.stats()["operator_hits"] == 6


class TestRecoveryEngineSettings:
    def test_defaults_on(self):
        settings = RecoveryEngineSettings()
        assert settings.cache_problems
        assert settings.warm_start_streams
        assert settings.batch_size == 32

    def test_default_config_carries_settings(self):
        assert FrontEndConfig().recovery == RecoveryEngineSettings()

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryEngineSettings(batch_size=0)

    def test_hashable_with_config(self):
        """Configs stay hashable (the link memo keys on them)."""
        assert hash(FrontEndConfig()) == hash(FrontEndConfig())


class TestOperatorSets:
    """Operator-set caching: backend AND precision participate in the key."""

    def _problem(self):
        key = _key(m=32, n=64)
        return CsProblem(key.sensing.build(32, 64), make_basis(64, "db4"))

    def test_same_settings_reuse_one_set(self):
        from repro.backend import BackendSettings

        cache = ProblemCache()
        problem = self._problem()
        a = cache.operators(problem, BackendSettings())
        b = cache.operators(problem, BackendSettings())
        assert a is b
        stats = cache.stats()
        assert stats["operator_hits"] == 1
        assert stats["operator_misses"] == 1
        assert stats["operator_sets"] == 1

    def test_precision_participates_in_key(self):
        from repro.backend import BackendSettings

        cache = ProblemCache()
        problem = self._problem()
        exact = cache.operators(problem, BackendSettings())
        fast = cache.operators(
            problem, BackendSettings(precision="float32")
        )
        assert exact is not fast
        assert cache.stats()["operator_misses"] == 2
        assert fast.a.dtype == np.float32
        assert exact.a.dtype == np.float64

    def test_problem_identity_participates_in_key(self):
        from repro.backend import BackendSettings

        cache = ProblemCache()
        a = cache.operators(self._problem(), BackendSettings())
        b = cache.operators(self._problem(), BackendSettings())
        assert a is not b
        assert cache.stats()["operator_misses"] == 2

    def test_exact_set_delegates_to_problem(self):
        """The bit-identity contract: on NumPy/float64 the set exposes
        the problem's own operator and factorization objects."""
        from repro.backend import BackendSettings

        problem = self._problem()
        ops = ProblemCache().operators(problem, BackendSettings())
        assert ops.a is problem.a
        assert ops.admm_factor() is problem.admm_factor()

    def test_fast_factor_is_native_precision(self):
        from repro.backend import BackendSettings

        problem = self._problem()
        ops = ProblemCache().operators(
            problem, BackendSettings(precision="float32")
        )
        factor = ops.admm_factor()
        assert factor[0].dtype == np.float32
        rhs = np.ones((64, 2), dtype=np.float32)
        solved = ops.cho_solve(rhs)
        assert solved.dtype == np.float32
        gram = np.eye(64) + problem.a.T @ problem.a
        assert np.allclose(gram @ solved.astype(np.float64), rhs, atol=1e-3)

    def test_operators_for_defaults_and_clear(self):
        from repro.backend import BackendSettings
        from repro.recovery.opcache import operators_for

        cache = ProblemCache()
        problem = self._problem()
        default = operators_for(problem, cache=cache)
        assert default.settings == BackendSettings()
        assert operators_for(problem, cache=cache) is default
        cache.clear()
        stats = cache.stats()
        assert stats["operator_sets"] == 0
        assert stats["operator_hits"] == 0
        assert stats["operator_misses"] == 0
        assert operators_for(problem, cache=cache) is not default
