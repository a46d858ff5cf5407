"""Tests of adaptive measurement allocation."""

import numpy as np
import pytest

from repro.core.adaptive import ActivityEstimator, AdaptiveFrontEnd, AdaptiveReceiver
from repro.core.config import FrontEndConfig
from repro.metrics.quality import snr_db
from repro.recovery.pdhg import PdhgSettings
from repro.sensing.matrices import bernoulli_matrix
from repro.signals.records import Record, RecordHeader
from tests.per_bit_oracles import process_window


@pytest.fixture
def config():
    return FrontEndConfig(
        window_len=128,
        n_measurements=64,  # the physical bank size m_max
        solver=PdhgSettings(max_iter=700, tol=3e-4),
    )


class TestActivityEstimator:
    def test_flat_window_zero(self):
        est = ActivityEstimator()
        assert est.score(np.full(100, 42, dtype=np.int64)) == 0.0

    def test_busy_window_high(self):
        est = ActivityEstimator()
        codes = np.arange(100, dtype=np.int64) % 2 + 10
        assert est.score(codes) == 1.0

    def test_partial_activity(self):
        est = ActivityEstimator()
        codes = np.array([5, 5, 6, 6, 6], dtype=np.int64)
        assert est.score(codes) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            ActivityEstimator().score(np.array([1], dtype=np.int64))


class TestPrefixProperty:
    def test_smaller_bank_is_sign_prefix(self):
        """The physical story — powering down channels — requires the
        m-channel Φ's sign pattern to be the row prefix of the bank's."""
        big = bernoulli_matrix(64, 128, seed=2015) * np.sqrt(64)
        small = bernoulli_matrix(16, 128, seed=2015) * np.sqrt(16)
        assert np.array_equal(np.sign(big[:16]), np.sign(small))


class TestAdaptiveFrontEnd:
    def test_m_scales_with_activity(self, config, codebook_7bit):
        fe = AdaptiveFrontEnd(config, codebook_7bit, m_min=16)
        assert fe.measurements_for_activity(0.0) == 16
        assert fe.measurements_for_activity(1.0) == 64
        mid = fe.measurements_for_activity(0.3)
        assert 16 < mid < 64

    def test_quiet_windows_get_fewer_measurements(self, config, codebook_7bit):
        fe = AdaptiveFrontEnd(config, codebook_7bit, m_min=16)
        quiet = np.full(128, 1024, dtype=np.int64)
        busy = (1024 + 150 * np.sin(np.arange(128))).astype(np.int64)
        p_quiet = fe.process_window(quiet)
        p_busy = fe.process_window(busy)
        assert p_quiet.m < p_busy.m

    def test_real_record_mixes_rates(self, config, codebook_7bit, record_100):
        fe = AdaptiveFrontEnd(config, codebook_7bit, m_min=16)
        packets = fe.process_record(record_100, max_windows=8)
        ms = {p.m for p in packets}
        assert all(16 <= m <= 64 for m in ms)

    def test_saves_bits_vs_fixed(self, config, codebook_7bit, record_100):
        from repro.core.frontend import HybridFrontEnd

        adaptive = AdaptiveFrontEnd(config, codebook_7bit, m_min=16)
        fixed = HybridFrontEnd(config, codebook_7bit)
        a_bits = sum(
            p.total_bits for p in adaptive.process_record(record_100, 6)
        )
        f_bits = sum(p.total_bits for p in fixed.process_record(record_100, 6))
        assert a_bits <= f_bits

    def test_record_resolution_checked(self, config, codebook_7bit, record_100):
        """A record digitized at another depth is refused, as the fixed
        front-end refuses it, even when its samples fit the config's range."""
        from repro.core.frontend import HybridFrontEnd

        header = RecordHeader(resolution_bits=config.acquisition_bits + 1)
        record = Record("wide", record_100.adu[: 2 * config.window_len], header)
        with pytest.raises(ValueError, match="record resolution"):
            HybridFrontEnd(config, codebook_7bit).process_record(record)
        with pytest.raises(ValueError, match="record resolution"):
            AdaptiveFrontEnd(config, codebook_7bit).process_record(record)

    def test_validation(self, config, codebook_7bit):
        with pytest.raises(ValueError):
            AdaptiveFrontEnd(config, codebook_7bit, m_min=0)
        with pytest.raises(ValueError):
            AdaptiveFrontEnd(config, codebook_7bit, m_min=100)
        with pytest.raises(ValueError):
            AdaptiveFrontEnd(config, codebook_7bit, activity_knee=0.0)
        fe = AdaptiveFrontEnd(config, codebook_7bit)
        with pytest.raises(ValueError):
            fe.measurements_for_activity(1.5)
        with pytest.raises(ValueError):
            fe.process_window(np.zeros(64, dtype=np.int64))


class TestAdaptiveLink:
    def test_end_to_end_quality(self, config, codebook_7bit, record_100):
        fe = AdaptiveFrontEnd(config, codebook_7bit, m_min=24)
        rx = AdaptiveReceiver(config, codebook_7bit)
        snrs = []
        for packet, window in zip(
            fe.process_record(record_100, 3),
            record_100.windows(config.window_len),
        ):
            recon = rx.reconstruct(packet)
            ref = window.astype(float) - 1024
            snrs.append(snr_db(ref, recon.x_centered(1024)))
        assert min(snrs) > 10.0

    def test_receiver_caches_per_m(self, config, codebook_7bit, record_100):
        fe = AdaptiveFrontEnd(config, codebook_7bit, m_min=16)
        rx = AdaptiveReceiver(config, codebook_7bit)
        packets = fe.process_record(record_100, 4)
        for p in packets:
            rx.reconstruct(p)
        assert set(rx._receivers) == {p.m for p in packets}

    def test_oversized_m_rejected(self, config, codebook_7bit, record_100):
        from repro.core.frontend import HybridFrontEnd

        big_config = config.with_measurements(128)
        big_fe = HybridFrontEnd(big_config, codebook_7bit)
        window = next(record_100.windows(config.window_len))
        packet = big_fe.process_window(window)
        rx = AdaptiveReceiver(config, codebook_7bit)  # bank of 64
        with pytest.raises(ValueError):
            rx.reconstruct(packet)

    def test_matches_fixed_link_at_same_m(self, config, codebook_7bit, record_100):
        """Every window's packet is the one a fixed node of the chosen m
        sends, and it decodes identically through the adaptive receiver
        and a fixed receiver of that m."""
        from repro.core.frontend import HybridFrontEnd
        from repro.core.receiver import HybridReceiver

        windows = list(record_100.windows(config.window_len))
        packets = AdaptiveFrontEnd(config, codebook_7bit).process_record(record_100)
        assert len(packets) == len(windows)
        adaptive = AdaptiveReceiver(config, codebook_7bit)
        fixed = {}
        for index, (window, packet) in enumerate(zip(windows, packets)):
            if packet.m not in fixed:
                cfg_m = config.with_measurements(packet.m)
                fixed[packet.m] = (
                    HybridFrontEnd(cfg_m, codebook_7bit),
                    HybridReceiver(cfg_m, codebook_7bit),
                )
            node, receiver = fixed[packet.m]
            assert packet.to_bytes() == process_window(node, window, index).to_bytes()
            assert np.allclose(
                receiver.reconstruct(packet).x_codes,
                adaptive.reconstruct(packet).x_codes,
            )
        assert len(fixed) > 1
