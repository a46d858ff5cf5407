"""Tests of the ECGSYN-style synthesizer and the RR tachogram model."""

import numpy as np
import pytest

from repro.signals.ecgsyn import (
    NORMAL_MORPHOLOGY,
    PVC_MORPHOLOGY,
    EcgMorphology,
    RRParameters,
    rr_tachogram,
    synthesize_ecg,
)
from tests.signals.synth_oracles import integrate_reference, synthesize_loop


class TestMorphology:
    def test_normal_has_five_waves(self):
        assert len(NORMAL_MORPHOLOGY.theta_rad) == 5

    def test_r_wave_dominates(self):
        a = np.asarray(NORMAL_MORPHOLOGY.a)
        assert np.argmax(np.abs(a)) == 2  # the R wave

    def test_scaled(self):
        doubled = NORMAL_MORPHOLOGY.scaled(2.0)
        assert doubled.a == tuple(2 * x for x in NORMAL_MORPHOLOGY.a)

    def test_validation(self):
        with pytest.raises(ValueError):
            EcgMorphology(theta_rad=(0.0,), a=(1.0, 2.0), b=(0.1,))
        with pytest.raises(ValueError):
            EcgMorphology(theta_rad=(0.0,), a=(1.0,), b=(0.0,))


class TestRrTachogram:
    def test_mean_and_positivity(self, rng):
        params = RRParameters(mean_hr_bpm=72.0, std_hr_bpm=2.0)
        rr = rr_tachogram(20000, 360.0, params, rng)
        assert np.all(rr > 0)
        assert float(np.mean(rr)) == pytest.approx(60.0 / 72.0, rel=0.02)

    def test_variability_scales(self, rng):
        quiet = rr_tachogram(
            8192, 360.0, RRParameters(std_hr_bpm=0.5), np.random.default_rng(1)
        )
        wild = rr_tachogram(
            8192, 360.0, RRParameters(std_hr_bpm=4.0), np.random.default_rng(1)
        )
        assert np.std(wild) > np.std(quiet) * 2

    def test_zero_std_is_constant(self, rng):
        rr = rr_tachogram(1024, 360.0, RRParameters(std_hr_bpm=0.0), rng)
        assert np.allclose(rr, rr[0])

    def test_spectrum_is_bimodal(self):
        """Power concentrates near the LF and HF poles."""
        params = RRParameters(std_hr_bpm=2.0)
        rr = rr_tachogram(2**15, 8.0, params, np.random.default_rng(7))
        centered = rr - np.mean(rr)
        spec = np.abs(np.fft.rfft(centered)) ** 2
        freqs = np.fft.rfftfreq(centered.size, d=1 / 8.0)
        in_band = spec[(freqs > 0.05) & (freqs < 0.35)].sum()
        assert in_band / spec.sum() > 0.9

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            rr_tachogram(0, 360.0, RRParameters(), rng)
        with pytest.raises(ValueError):
            RRParameters(mean_hr_bpm=0.0)


class TestSynthesizeEcg:
    def test_length_and_amplitude(self):
        sig = synthesize_ecg(10.0, 360.0, amplitude_mv=1.2, seed=0)
        assert sig.size == 3600
        assert float(np.max(np.abs(sig))) == pytest.approx(1.2, rel=1e-6)

    def test_deterministic_given_seed(self):
        a = synthesize_ecg(5.0, 360.0, seed=42)
        b = synthesize_ecg(5.0, 360.0, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = synthesize_ecg(5.0, 360.0, seed=1)
        b = synthesize_ecg(5.0, 360.0, seed=2)
        assert not np.allclose(a, b)

    def test_beat_rate_matches_heart_rate(self):
        hr = 75.0
        sig = synthesize_ecg(
            30.0, 360.0, rr_params=RRParameters(mean_hr_bpm=hr, std_hr_bpm=0.5),
            seed=3,
        )
        # Count R peaks: samples above 60% of max, grouped.
        above = sig > 0.6 * sig.max()
        edges = np.diff(above.astype(int))
        n_peaks = int(np.sum(edges == 1))
        expected = 30.0 * hr / 60.0
        assert abs(n_peaks - expected) <= 4

    def test_pvc_morphology_differs(self):
        normal = synthesize_ecg(10.0, 360.0, seed=5)
        pvc = synthesize_ecg(10.0, 360.0, morphology=PVC_MORPHOLOGY, seed=5)
        assert not np.allclose(normal, pvc)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_ecg(0.0)
        with pytest.raises(ValueError):
            synthesize_ecg(1.0, fs_hz=0.0)


class TestReferenceIntegrator:
    def test_agrees_with_phase_domain(self):
        """The fast path and the full 3-state RK4 integration produce the
        same waveform morphology (compared via best-aligned correlation
        over one beat at fixed heart rate)."""
        fs = 360.0
        ref = integrate_reference(4.0, fs, mean_hr_bpm=60.0)
        fast = synthesize_ecg(
            4.0,
            fs,
            rr_params=RRParameters(mean_hr_bpm=60.0, std_hr_bpm=0.0),
            resp_amplitude_mv=0.0,
            seed=11,
        )
        # Normalize and align by circular cross-correlation.
        a = (ref - ref.mean()) / np.linalg.norm(ref - ref.mean())
        b = (fast - fast.mean()) / np.linalg.norm(fast - fast.mean())
        corr = np.fft.irfft(np.fft.rfft(a) * np.conj(np.fft.rfft(b)))
        assert float(np.max(corr)) > 0.95

    def test_limit_cycle_reached(self):
        sig = integrate_reference(3.0, 250.0)
        # Periodicity: beats 2 and 3 nearly identical at fixed HR.
        beat = 250  # samples per beat at 60 bpm
        b2 = sig[beat : 2 * beat]
        b3 = sig[2 * beat : 3 * beat]
        assert np.linalg.norm(b2 - b3) / np.linalg.norm(b2) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_reference(-1.0)
        with pytest.raises(ValueError):
            integrate_reference(1.0, oversample=0)


class TestScalarOracle:
    """The per-sample loop must match the vectorized integrator bit for bit."""

    def test_bit_identical_default_params(self):
        fast = synthesize_ecg(2.0, 360.0, seed=3)
        slow = synthesize_loop(2.0, 360.0, seed=3)
        assert np.array_equal(fast, slow)

    def test_bit_identical_across_seeds(self):
        for seed in (0, 7, 123):
            assert np.array_equal(
                synthesize_ecg(1.0, 250.0, seed=seed),
                synthesize_loop(1.0, 250.0, seed=seed),
            )

    def test_bit_identical_custom_morphology_and_rr(self):
        kwargs = dict(
            morphology=PVC_MORPHOLOGY,
            rr_params=RRParameters(mean_hr_bpm=75.0, std_hr_bpm=2.0),
            amplitude_mv=1.4,
            z_baseline_mv=0.1,
            resp_rate_hz=0.3,
            resp_amplitude_mv=0.01,
            seed=5,
        )
        assert np.array_equal(
            synthesize_ecg(1.5, 360.0, **kwargs),
            synthesize_loop(1.5, 360.0, **kwargs),
        )

    def test_oracle_validates_like_fast_path(self):
        with pytest.raises(ValueError):
            synthesize_loop(-1.0, 360.0)
