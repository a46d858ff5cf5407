"""Tests of the lossy-link simulation and the robust receiver."""

import numpy as np
import pytest

from repro.core.channel import LossyLink, RobustReceiver, payload_crc
from repro.core.config import FrontEndConfig
from repro.core.frontend import HybridFrontEnd
from repro.core.packets import WindowPacket
from repro.metrics.quality import snr_db
from repro.recovery.pdhg import PdhgSettings
from tests.per_bit_oracles import link_transmit


@pytest.fixture
def config():
    return FrontEndConfig(
        window_len=128,
        n_measurements=48,
        solver=PdhgSettings(max_iter=700, tol=3e-4),
    )


@pytest.fixture
def link_setup(config, codebook_7bit, record_100):
    frontend = HybridFrontEnd(config, codebook_7bit)
    windows = list(record_100.windows(128))[:3]
    packets = [frontend.process_window(w, i) for i, w in enumerate(windows)]
    return frontend, windows, packets


class TestLossyLink:
    def test_clean_channel_is_identity(self, link_setup):
        _, _, packets = link_setup
        link = LossyLink()
        out = link.transmit(packets[0])
        assert np.array_equal(out.measurement_codes, packets[0].measurement_codes)
        assert out.lowres_payload == packets[0].lowres_payload

    def test_erasure(self, link_setup):
        _, _, packets = link_setup
        link = LossyLink(packet_erasure_rate=0.999999, seed=1)
        assert link.transmit(packets[0]) is None

    def test_bit_errors_corrupt(self, link_setup):
        _, _, packets = link_setup
        link = LossyLink(bit_error_rate=0.05, seed=2)
        out = link.transmit(packets[0])
        changed = not np.array_equal(
            out.measurement_codes, packets[0].measurement_codes
        ) or out.lowres_payload != packets[0].lowres_payload
        assert changed

    def test_deterministic(self, link_setup):
        _, _, packets = link_setup
        a = LossyLink(bit_error_rate=0.01, seed=3).transmit(packets[0])
        b = LossyLink(bit_error_rate=0.01, seed=3).transmit(packets[0])
        assert np.array_equal(a.measurement_codes, b.measurement_codes)
        assert a.lowres_payload == b.lowres_payload

    def test_validation(self):
        with pytest.raises(ValueError):
            LossyLink(bit_error_rate=1.0)
        with pytest.raises(ValueError):
            LossyLink(packet_erasure_rate=-0.1)


class TestTransmitOracle:
    """``transmit`` against the per-bit corruption loop it replaced."""

    @staticmethod
    def _packets(link_setup):
        _, _, packets = link_setup
        rng = np.random.default_rng(5)
        extra = []
        for m, bits, payload_bits in [(0, 12, 40), (7, 1, 0), (13, 16, 13), (0, 3, 0)]:
            extra.append(
                WindowPacket(
                    window_index=len(extra), n=64,
                    measurement_codes=rng.integers(0, 1 << bits, size=m),
                    measurement_bits=bits,
                    lowres_payload=bytes(
                        rng.integers(0, 256, size=(payload_bits + 7) // 8 + 1)
                        .astype(np.uint8)
                    ),
                    lowres_bit_length=payload_bits,
                )
            )
        return list(packets) * 4 + extra

    @pytest.mark.parametrize("ber", [0.0, 1e-5, 3e-3, 0.2])
    @pytest.mark.parametrize("erasure", [0.0, 0.1])
    def test_same_packets_and_rng_state(self, link_setup, ber, erasure):
        new = LossyLink(bit_error_rate=ber, packet_erasure_rate=erasure, seed=11)
        ref = LossyLink(bit_error_rate=ber, packet_erasure_rate=erasure, seed=11)
        for packet in self._packets(link_setup):
            got, want = new.transmit(packet), link_transmit(ref, packet)
            if want is None:
                assert got is None
            else:
                assert got.measurement_codes.dtype == want.measurement_codes.dtype
                assert got.to_bytes() == want.to_bytes()
                assert got.lowres_payload == want.lowres_payload
            assert (
                new._rng.bit_generator.state == ref._rng.bit_generator.state
            )


class TestPayloadCrc:
    def test_stable(self, link_setup):
        _, _, packets = link_setup
        assert payload_crc(packets[0]) == payload_crc(packets[0])

    def test_detects_corruption(self, link_setup):
        _, _, packets = link_setup
        link = LossyLink(bit_error_rate=0.05, seed=4)
        corrupted = link.transmit(packets[0])
        assert payload_crc(corrupted) != payload_crc(packets[0])


class TestRobustReceiver:
    def test_clean_path_uses_hybrid(self, config, codebook_7bit, link_setup):
        _, windows, packets = link_setup
        rx = RobustReceiver(config, codebook_7bit)
        recon, mode = rx.receive(packets[0], payload_crc(packets[0]))
        assert mode == "hybrid"
        ref = windows[0].astype(float) - 1024
        assert snr_db(ref, recon.x_codes - 1024) > 12.0

    def test_erasure_concealed(self, config, codebook_7bit, link_setup):
        _, windows, packets = link_setup
        rx = RobustReceiver(config, codebook_7bit)
        rx.receive(packets[0], payload_crc(packets[0]))
        recon, mode = rx.receive(None, window_index=1)
        assert mode == "concealed"
        # Zero-order hold: repeats the previous window's reconstruction.
        prev, _ = RobustReceiver(config, codebook_7bit).receive(
            packets[0], payload_crc(packets[0])
        )
        assert np.allclose(recon.x_codes, prev.x_codes)

    def test_first_window_erasure_uses_baseline(self, config, codebook_7bit):
        rx = RobustReceiver(config, codebook_7bit)
        recon, mode = rx.receive(None)
        assert mode == "concealed"
        assert np.allclose(recon.x_codes, 1024.0)

    def test_corrupted_payload_falls_back_to_cs(
        self, config, codebook_7bit, link_setup
    ):
        _, windows, packets = link_setup
        link = LossyLink(bit_error_rate=0.03, seed=5)
        corrupted = link.transmit(packets[0])
        rx = RobustReceiver(config, codebook_7bit)
        recon, mode = rx.receive(corrupted, payload_crc(packets[0]))
        assert mode == "cs-fallback"
        # Fallback still produces a finite, sane reconstruction.
        assert np.all(np.isfinite(recon.x_codes))

    def test_stream_modes(self, config, codebook_7bit, link_setup):
        _, windows, packets = link_setup
        crcs = [payload_crc(p) for p in packets]
        impaired = [packets[0], None, packets[2]]
        rx = RobustReceiver(config, codebook_7bit)
        results = rx.receive_stream(impaired, crcs)
        assert [mode for _, mode in results] == ["hybrid", "concealed", "hybrid"]

    def test_graceful_degradation_end_to_end(
        self, config, codebook_7bit, link_setup
    ):
        """Under moderate impairment the stream mean SNR stays usable."""
        _, windows, packets = link_setup
        crcs = [payload_crc(p) for p in packets]
        link = LossyLink(bit_error_rate=1e-4, seed=6)
        received = [link.transmit(p) for p in packets]
        rx = RobustReceiver(config, codebook_7bit)
        results = rx.receive_stream(received, crcs)
        snrs = []
        for (recon, _), window in zip(results, windows):
            ref = window.astype(float) - 1024
            snrs.append(snr_db(ref, recon.x_codes - 1024))
        assert np.mean(snrs) > 8.0
