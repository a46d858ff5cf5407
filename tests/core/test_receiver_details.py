"""Focused tests of receiver internals (σ sizing, unit handling)."""

import numpy as np
import pytest

from repro.core.channel import decode_robust, payload_crc
from repro.core.config import FrontEndConfig
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.core.receiver import HybridReceiver, WindowReconstruction
from repro.recovery.methods import method_names
from repro.recovery.pdhg import PdhgSettings
from repro.recovery.result import RecoveryResult


@pytest.fixture
def config():
    return FrontEndConfig(
        window_len=128,
        n_measurements=48,
        solver=PdhgSettings(max_iter=500, tol=5e-4),
    )


class TestSigmaSizing:
    def test_formula(self, config, codebook_7bit):
        rx = HybridReceiver(config, codebook_7bit)
        m = config.n_measurements
        expected = (
            config.sigma_safety * np.sqrt(m) * rx.quantizer.step / np.sqrt(12)
        )
        assert rx.sigma() == pytest.approx(expected)

    def test_sigma_bounds_actual_quantization_error(
        self, config, codebook_7bit, record_100
    ):
        """On real windows the dequantized measurements sit within σ of
        the exact ones — the property Eq. 1's feasibility needs."""
        fe = HybridFrontEnd(config, codebook_7bit)
        rx = HybridReceiver(config, codebook_7bit)
        for idx, window in enumerate(record_100.windows(128)):
            if idx >= 5:
                break
            packet = fe.process_window(window, idx)
            y = rx.decode_measurements(packet)
            exact = fe.phi @ (window.astype(float) - 1024)
            assert np.linalg.norm(y - exact) <= rx.sigma()

    def test_sigma_scales_with_safety(self, codebook_7bit):
        base = FrontEndConfig(window_len=128, n_measurements=48)
        double = FrontEndConfig(
            window_len=128, n_measurements=48, sigma_safety=4.0
        )
        rx1 = HybridReceiver(base, codebook_7bit)
        rx2 = HybridReceiver(double, codebook_7bit)
        assert rx2.sigma() == pytest.approx(2.0 * rx1.sigma())


class TestWindowReconstruction:
    def test_x_centered(self):
        recon = WindowReconstruction(
            window_index=0,
            x_codes=np.array([1024.0, 1030.0]),
            recovery=RecoveryResult(
                alpha=np.zeros(2), x=np.zeros(2), iterations=1,
                converged=True, residual_norm=0.0, objective=0.0, solver="t",
            ),
            lowres_codes=None,
        )
        assert np.allclose(recon.x_centered(1024), [0.0, 6.0])


class TestPacketValidationAtReceiver:
    def test_wrong_n_rejected(self, config, codebook_7bit, record_100):
        other = FrontEndConfig(
            window_len=256, n_measurements=48,
            solver=PdhgSettings(max_iter=200),
        )
        fe = HybridFrontEnd(other, codebook_7bit)
        window = next(record_100.windows(256))
        packet = fe.process_window(window)
        rx = HybridReceiver(config, codebook_7bit)
        with pytest.raises(ValueError):
            rx.reconstruct(packet)


SOLVERS = ("solve_hybrid", "solve_bpdn", "solve_bsbl", "solve_bsbl_dequant")
OWN_SOLVER = {
    "hybrid": "solve_hybrid",
    "normal": "solve_bpdn",
    "bsbl": "solve_bsbl",
    "bsbl-dequant": "solve_bsbl_dequant",
}
# A payload-less packet goes to the method's measurements-only sibling.
STRIPPED_SOLVER = {
    "hybrid": "solve_bpdn",
    "normal": "solve_bpdn",
    "bsbl": "solve_bsbl",
    "bsbl-dequant": "solve_bsbl",
}


def _only(solver):
    return {name: int(name == solver) for name in SOLVERS}


def _receiver(config, codebook, method):
    """``method=None`` builds the receiver without a method argument, so
    the default (``"hybrid"``) dispatch is checked too."""
    if method is None:
        return HybridReceiver(config, codebook), "hybrid"
    return HybridReceiver(config, codebook, method=method), method


class TestSolverDispatch:
    """``reconstruct`` resolves all four solvers through the receiver
    module's namespace, the names a span tracer patches to attribute
    per-method solve time; a direct kernel call would bypass the patch
    silently.  A packet with a payload goes to the receiver's method, a
    payload-less one to the method's measurements-only sibling."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.core.receiver as receiver_module

        counts = dict.fromkeys(SOLVERS, 0)
        for name in counts:
            original = getattr(receiver_module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(receiver_module, name, counting)
        return counts

    @pytest.mark.parametrize("method", [None, *method_names()])
    def test_hybrid_packet(self, calls, config, codebook_7bit, record_100, method):
        packet = HybridFrontEnd(config, codebook_7bit).process_window(
            next(record_100.windows(128))
        )
        rx, name = _receiver(config, codebook_7bit, method)
        rx.reconstruct(packet)
        assert calls == _only(OWN_SOLVER[name])

    @pytest.mark.parametrize("method", method_names())
    def test_crc_mismatch(
        self, calls, config, codebook_7bit, record_100, method
    ):
        packet = HybridFrontEnd(config, codebook_7bit).process_window(
            next(record_100.windows(128))
        )
        rx = HybridReceiver(config, codebook_7bit, method=method)
        _, mode = decode_robust(packet, payload_crc(packet) ^ 1, rx)
        assert mode == "cs-fallback"
        assert calls == _only(STRIPPED_SOLVER[method])

    @pytest.mark.parametrize("method", [None, *method_names()])
    def test_normal_packet(self, calls, config, record_100, method):
        packet = NormalCsFrontEnd(config).process_window(
            next(record_100.windows(128))
        )
        rx, name = _receiver(config, None, method)
        rx.reconstruct(packet)
        assert calls == _only(STRIPPED_SOLVER[name])
