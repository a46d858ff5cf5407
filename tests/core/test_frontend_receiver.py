"""Tests of the node front-ends and receiver, incl. lossless paths."""

import numpy as np
import pytest

from repro.core.config import FrontEndConfig
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.core.receiver import HybridReceiver
from repro.recovery.pdhg import PdhgSettings
from repro.sensing.quantizers import requantize_codes


@pytest.fixture
def config():
    return FrontEndConfig(
        window_len=128,
        n_measurements=48,
        solver=PdhgSettings(max_iter=800, tol=3e-4),
    )


@pytest.fixture
def window(record_100, config):
    return next(record_100.windows(config.window_len))


class TestHybridFrontEnd:
    def test_codebook_resolution_checked(self, config, codebook_7bit):
        bad = config.with_lowres_bits(5)
        with pytest.raises(ValueError):
            HybridFrontEnd(bad, codebook_7bit)

    def test_packet_shape(self, config, codebook_7bit, window):
        fe = HybridFrontEnd(config, codebook_7bit)
        packet = fe.process_window(window, window_index=9)
        assert packet.window_index == 9
        assert packet.m == 48
        assert packet.n == 128
        assert packet.lowres_bit_length > 0

    def test_lowres_codes_match_requantization(self, config, codebook_7bit, window):
        fe = HybridFrontEnd(config, codebook_7bit)
        packet = fe.process_window(window)
        decoded = codebook_7bit.decode_window(
            packet.lowres_payload, window.size, packet.lowres_bit_length
        )
        assert np.array_equal(decoded, requantize_codes(window, 11, 7))

    def test_window_validation(self, config, codebook_7bit):
        fe = HybridFrontEnd(config, codebook_7bit)
        with pytest.raises(ValueError):
            fe.process_window(np.zeros(127, dtype=np.int64))
        with pytest.raises(TypeError):
            fe.process_window(np.zeros(128))
        with pytest.raises(ValueError):
            fe.process_window(np.full(128, 4096, dtype=np.int64))

    def test_process_record(self, config, codebook_7bit, record_100):
        fe = HybridFrontEnd(config, codebook_7bit)
        packets = fe.process_record(record_100, max_windows=3)
        assert len(packets) == 3
        assert [p.window_index for p in packets] == [0, 1, 2]


class TestNormalFrontEnd:
    def test_packet_has_no_lowres(self, config, window):
        fe = NormalCsFrontEnd(config)
        packet = fe.process_window(window)
        assert packet.lowres_bit_length == 0
        assert packet.lowres_payload == b""

    def test_same_cs_path_as_hybrid(self, config, codebook_7bit, window):
        """Both front-ends share the CS path exactly (same Φ, same ADC)."""
        hybrid = HybridFrontEnd(config, codebook_7bit)
        normal = NormalCsFrontEnd(config)
        assert np.array_equal(
            hybrid.process_window(window).measurement_codes,
            normal.process_window(window).measurement_codes,
        )


class TestReceiver:
    def test_lowres_decode_is_lossless(self, config, codebook_7bit, window):
        """The parallel path is entirely lossless end to end."""
        fe = HybridFrontEnd(config, codebook_7bit)
        rx = HybridReceiver(config, codebook_7bit)
        packet = fe.process_window(window)
        decoded = rx.decode_lowres(packet)
        assert np.array_equal(decoded, requantize_codes(window, 11, 7))

    def test_measurement_dequantization_close(self, config, codebook_7bit, window):
        fe = HybridFrontEnd(config, codebook_7bit)
        rx = HybridReceiver(config, codebook_7bit)
        packet = fe.process_window(window)
        y = rx.decode_measurements(packet)
        ideal = fe.phi @ (window.astype(float) - 1024)
        assert np.linalg.norm(y - ideal) <= rx.sigma()

    def test_phi_agreement(self, config, codebook_7bit):
        fe = HybridFrontEnd(config, codebook_7bit)
        rx = HybridReceiver(config, codebook_7bit)
        assert np.array_equal(fe.phi, rx.phi)

    def test_hybrid_reconstruction_inside_bounds(
        self, config, codebook_7bit, window
    ):
        fe = HybridFrontEnd(config, codebook_7bit)
        rx = HybridReceiver(config, codebook_7bit)
        recon = rx.reconstruct(fe.process_window(window))
        lowres = requantize_codes(window, 11, 7)
        lower = (lowres.astype(float) * 16)
        upper = lower + 15
        slack = 1.0  # code units; PDHG enforces the box to tolerance
        assert np.all(recon.x_codes >= lower - slack)
        assert np.all(recon.x_codes <= upper + slack)

    def test_hybrid_beats_normal_on_same_window(
        self, config, codebook_7bit, window
    ):
        from repro.metrics.quality import snr_db

        hybrid_fe = HybridFrontEnd(config, codebook_7bit)
        normal_fe = NormalCsFrontEnd(config)
        rx = HybridReceiver(config, codebook_7bit)
        ref = window.astype(float) - 1024
        hy = rx.reconstruct(hybrid_fe.process_window(window))
        no = rx.reconstruct(normal_fe.process_window(window))
        assert snr_db(ref, hy.x_centered(1024)) > snr_db(ref, no.x_centered(1024))

    def test_normal_packet_without_codebook(self, config, window):
        fe = NormalCsFrontEnd(config)
        rx = HybridReceiver(config)  # no codebook
        recon = rx.reconstruct(fe.process_window(window))
        assert recon.lowres_codes is None

    def test_decode_lowres_requires_codebook(self, config, codebook_7bit, window):
        fe = HybridFrontEnd(config, codebook_7bit)
        rx = HybridReceiver(config)
        with pytest.raises(ValueError):
            rx.decode_lowres(fe.process_window(window))

    def test_config_mismatch_detected(self, config, codebook_7bit, window):
        fe = HybridFrontEnd(config, codebook_7bit)
        other = config.with_measurements(32)
        rx = HybridReceiver(other, codebook_7bit)
        with pytest.raises(ValueError):
            rx.reconstruct(fe.process_window(window))
