"""Integration tests: the full transmit-to-reconstruct chain, including
serialization over the 'air' and the paper's qualitative claims."""

import numpy as np
import pytest

from repro.core.config import FrontEndConfig
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.core.packets import WindowPacket
from repro.core.receiver import HybridReceiver
from repro.metrics.quality import prd, snr_db
from repro.recovery.pdhg import PdhgSettings
from repro.signals.database import load_record


@pytest.fixture(scope="module")
def config():
    return FrontEndConfig(
        window_len=256,
        n_measurements=64,  # 75% CS CR
        solver=PdhgSettings(max_iter=1200, tol=2e-4),
    )


@pytest.fixture(scope="module")
def link(config, codebook_7bit):
    fe = HybridFrontEnd(config, codebook_7bit)
    rx = HybridReceiver(config, codebook_7bit)
    return fe, rx


class TestOverTheAir:
    def test_bytes_roundtrip_through_radio(self, link, record_100, config):
        """Serialize to bytes, parse on the far side, reconstruct: the
        result must equal reconstructing the in-memory packet."""
        fe, rx = link
        window = next(record_100.windows(config.window_len))
        packet = fe.process_window(window)
        wire = packet.to_bytes()
        parsed = WindowPacket.from_bytes(wire, config.measurement_bits)
        a = rx.reconstruct(packet)
        b = rx.reconstruct(parsed)
        assert np.allclose(a.x_codes, b.x_codes)

    def test_reconstruction_quality(self, link, record_100, config):
        fe, rx = link
        window = next(record_100.windows(config.window_len))
        recon = rx.reconstruct(fe.process_window(window))
        ref = window.astype(float) - 1024
        assert snr_db(ref, recon.x_centered(1024)) > 15.0

    def test_every_window_of_a_record(self, link, record_100, config):
        """Whole-record robustness: every window reconstructs to a sane
        quality with finite bit budgets."""
        fe, rx = link
        snrs = []
        for idx, window in enumerate(record_100.windows(config.window_len)):
            if idx >= 4:
                break
            packet = fe.process_window(window, idx)
            assert packet.total_bits < config.window_len * 12  # compressing
            recon = rx.reconstruct(packet)
            ref = window.astype(float) - 1024
            snrs.append(snr_db(ref, recon.x_centered(1024)))
        assert min(snrs) > 10.0


class TestPaperClaims:
    def test_hybrid_survives_97_percent_cr(self, codebook_7bit, record_100):
        """Section V: even at 97% CS CR the hybrid stays useful while
        normal CS collapses entirely."""
        config = FrontEndConfig(
            window_len=256,
            n_measurements=8,  # ~97% CR
            solver=PdhgSettings(max_iter=1500, tol=2e-4),
        )
        window = next(record_100.windows(256))
        ref = window.astype(float) - 1024
        rx = HybridReceiver(config, codebook_7bit)
        hybrid = rx.reconstruct(
            HybridFrontEnd(config, codebook_7bit).process_window(window)
        )
        normal = rx.reconstruct(NormalCsFrontEnd(config).process_window(window))
        hybrid_snr = snr_db(ref, hybrid.x_centered(1024))
        normal_snr = snr_db(ref, normal.x_centered(1024))
        assert hybrid_snr > 14.0
        assert normal_snr < 8.0

    def test_bound_constraint_limits_worst_case_error(
        self, codebook_7bit, record_100
    ):
        """The box guarantees per-sample error <= d even with almost no
        measurements — the 'strong bound' of Section II."""
        config = FrontEndConfig(
            window_len=256,
            n_measurements=4,
            solver=PdhgSettings(max_iter=1500, tol=2e-4),
        )
        window = next(record_100.windows(256))
        fe = HybridFrontEnd(config, codebook_7bit)
        rx = HybridReceiver(config, codebook_7bit)
        recon = rx.reconstruct(fe.process_window(window))
        err = np.abs(recon.x_codes - window.astype(float))
        step = config.lowres_step_codes
        assert np.max(err) <= step + 1.0  # box width + solver tolerance

    def test_net_cr_accounting_matches_section_v(self, link, record_100, config):
        """Net CR = CS CR - overhead: with 75% CS CR and single-digit
        overhead the net lands in the 60s, mirroring the paper's
        81% -> 73.14% arithmetic."""
        fe, rx = link
        window = next(record_100.windows(config.window_len))
        budget = fe.process_window(window).budget()
        assert budget.cs_cr_percent == pytest.approx(75.0)
        overhead = budget.lowres_overhead_percent
        assert 2.0 < overhead < 15.0
        assert budget.net_cr_percent == pytest.approx(
            budget.cs_cr_percent - overhead
            - budget.header_bits / budget.original_bits * 100,
            abs=1e-9,
        )


class TestRmpiPath:
    def test_rmpi_bank_measurements_recoverable(self, codebook_7bit, record_100):
        """Acquire through the behavioural RMPI (with mild non-idealities)
        instead of the matrix path, then recover with the ideal model —
        quality must survive the model mismatch."""
        from repro.sensing.rmpi import RmpiBank, RmpiNonidealities
        from repro.recovery.eq1 import solve_hybrid
        from repro.sensing.quantizers import lowres_bounds, requantize_codes
        from repro.wavelets.operators import WaveletBasis

        n, m = 256, 64
        window = next(record_100.windows(n))
        x = window.astype(float) - 1024
        bank = RmpiBank(
            m=m, n=n, seed=2015,
            nonidealities=RmpiNonidealities(
                integrator_leak_per_chip=1e-5, input_noise_rms=0.05,
            ),
        )
        y = bank.measure(x)
        sigma = bank.measurement_noise_bound(x_peak=float(np.max(np.abs(x))))
        lowres = requantize_codes(window, 11, 7)
        lower, upper = lowres_bounds(lowres, 11, 7)
        basis = WaveletBasis(n, "db4")
        result = solve_hybrid(
            bank.equivalent_matrix(), basis, y, sigma,
            lower - 1024, upper - 1024,
            settings=PdhgSettings(max_iter=1500, tol=2e-4),
        )
        assert snr_db(x, result.x) > 15.0
