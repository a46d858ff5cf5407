"""Dynamical-model ECG synthesizer (ECGSYN-style).

The paper evaluates on the MIT-BIH Arrhythmia Database, which is not
redistributable inside this offline environment.  Per the reproduction
plan (DESIGN.md §2) we substitute the database with synthetic ECG generated
by the McSharry-Clifford-Tarassenko dynamical model ("ECGSYN",
*IEEE Trans. Biomed. Eng.* 50(3), 2003), which produces realistic P-QRS-T
morphology with controllable heart-rate variability.  What matters for the
paper's experiments is that the signal is (a) quasi-periodic and wavelet-
compressible like real ECG and (b) quantized the way MIT-BIH is; the model
preserves both.

Three integrators are provided:

* :func:`synthesize_ecg` — the default fast phase-domain integrator.  It
  exploits the model structure: the limit cycle attracts ``(x, y)`` to the
  unit circle, so the phase obeys ``dθ/dt = ω(t)`` exactly on the cycle, and
  the ECG state ``z`` then satisfies a *linear* scalar ODE with time-varying
  forcing which we discretize exactly (exponential integrator, implemented
  as a vectorized IIR filter).

* :func:`synthesize_loop` — the same discretization executed one sample at
  a time in Python.  It is the differential-testing oracle for the array
  path: the test suite asserts the two are bit-identical.  Synthesis
  time on the real path is the ``signals.synth_s`` layer of
  ``perfbench/`` (see ``perfbench/README.md``).

* :func:`integrate_reference` — a faithful RK4 integration of the full
  three-state nonlinear ODE, used as a cross-check in the test suite.

All return the waveform in millivolts; quantization to ADC units happens in
:mod:`repro.signals.database`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np
from scipy import signal as sps

__all__ = [
    "EcgMorphology",
    "RRParameters",
    "rr_tachogram",
    "synthesize_ecg",
    "synthesize_loop",
    "integrate_reference",
    "NORMAL_MORPHOLOGY",
    "PVC_MORPHOLOGY",
    "V5_MORPHOLOGY",
    "PVC_V5_MORPHOLOGY",
]


@dataclass(frozen=True)
class EcgMorphology:
    """PQRST morphology parameters of the dynamical model.

    Each of the five waves (P, Q, R, S, T) is a Gaussian bump on the unit
    limit cycle, described by an angular position ``theta_rad``, an
    amplitude coefficient ``a`` and an angular width ``b`` (all arrays of
    equal length, canonically 5).
    """

    theta_rad: Tuple[float, ...]
    a: Tuple[float, ...]
    b: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not len(self.theta_rad) == len(self.a) == len(self.b):
            raise ValueError("theta_rad, a and b must have equal length")
        if len(self.theta_rad) == 0:
            raise ValueError("morphology needs at least one wave")
        if any(w <= 0 for w in self.b):
            raise ValueError("wave widths b must be positive")

    def scaled(self, amplitude: float) -> "EcgMorphology":
        """Return a copy with all wave amplitudes multiplied by a factor."""
        return replace(self, a=tuple(amplitude * ai for ai in self.a))

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three parameter tuples as float arrays."""
        return (
            np.asarray(self.theta_rad, dtype=float),
            np.asarray(self.a, dtype=float),
            np.asarray(self.b, dtype=float),
        )


#: Canonical normal-sinus morphology from the ECGSYN paper (Table 1).
NORMAL_MORPHOLOGY = EcgMorphology(
    theta_rad=(-math.pi / 3.0, -math.pi / 12.0, 0.0, math.pi / 12.0, math.pi / 2.0),
    a=(1.2, -5.0, 30.0, -7.5, 0.75),
    b=(0.25, 0.1, 0.1, 0.1, 0.4),
)

#: A wide-QRS, absent-P morphology approximating a premature ventricular
#: contraction; used by the database to give some records ectopic beats.
PVC_MORPHOLOGY = EcgMorphology(
    theta_rad=(-math.pi / 3.0, -math.pi / 9.0, -math.pi / 36.0, math.pi / 7.0, 1.9),
    a=(0.0, -9.0, 22.0, -11.0, -1.8),
    b=(0.25, 0.18, 0.22, 0.18, 0.5),
)

#: A precordial-lead (V5-like) projection of the normal beat: smaller R,
#: deeper S, more prominent T — used as the second channel of two-lead
#: records (MIT-BIH records carry MLII plus a precordial lead).
V5_MORPHOLOGY = EcgMorphology(
    theta_rad=(-math.pi / 3.0, -math.pi / 12.0, 0.0, math.pi / 12.0, math.pi / 2.0),
    a=(0.9, -3.0, 18.0, -10.5, 1.6),
    b=(0.25, 0.1, 0.1, 0.1, 0.45),
)

#: The PVC beat as seen from the V5-like lead.
PVC_V5_MORPHOLOGY = EcgMorphology(
    theta_rad=(-math.pi / 3.0, -math.pi / 9.0, -math.pi / 36.0, math.pi / 7.0, 1.9),
    a=(0.0, -6.0, 15.0, -14.0, -2.4),
    b=(0.25, 0.18, 0.22, 0.18, 0.5),
)


@dataclass(frozen=True)
class RRParameters:
    """Heart-rate-variability parameters for the RR tachogram generator.

    The ECGSYN RR process has a bimodal power spectrum: a low-frequency
    (Mayer wave) Gaussian at ``lf_hz`` and a high-frequency (respiratory
    sinus arrhythmia) Gaussian at ``hf_hz`` with a given LF/HF power ratio.
    """

    mean_hr_bpm: float = 60.0
    std_hr_bpm: float = 1.0
    lf_hz: float = 0.1
    hf_hz: float = 0.25
    lf_std_hz: float = 0.01
    hf_std_hz: float = 0.01
    lf_hf_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.mean_hr_bpm <= 0:
            raise ValueError("mean heart rate must be positive")
        if self.std_hr_bpm < 0:
            raise ValueError("heart-rate std cannot be negative")
        if self.lf_hf_ratio <= 0:
            raise ValueError("LF/HF ratio must be positive")

    @property
    def mean_rr_s(self) -> float:
        """Mean RR interval in seconds."""
        return 60.0 / self.mean_hr_bpm


def rr_tachogram(
    n_samples: int,
    fs_hz: float,
    params: RRParameters,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate an RR-interval time series sampled at ``fs_hz``.

    Uses the ECGSYN spectral-synthesis recipe: build the bimodal amplitude
    spectrum, attach uniformly random phases, inverse-FFT, then rescale to
    the requested RR mean and standard deviation.

    Returns
    -------
    numpy.ndarray
        RR values in seconds, shape ``(n_samples,)``, strictly positive.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / fs_hz)

    def gaussian(f0: float, sd: float, power: float) -> np.ndarray:
        return power * np.exp(-((freqs - f0) ** 2) / (2.0 * sd**2))

    # Power split between LF and HF bands according to the ratio.
    lf_power = params.lf_hf_ratio / (1.0 + params.lf_hf_ratio)
    hf_power = 1.0 / (1.0 + params.lf_hf_ratio)
    spectrum = gaussian(params.lf_hz, params.lf_std_hz, lf_power) + gaussian(
        params.hf_hz, params.hf_std_hz, hf_power
    )
    amplitude = np.sqrt(spectrum)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=amplitude.size)
    # DC and (for even n) Nyquist bins must be real for a real series.
    phases[0] = 0.0
    if n_samples % 2 == 0:
        phases[-1] = 0.0
    series = np.fft.irfft(amplitude * np.exp(1j * phases), n=n_samples)

    std = float(np.std(series))
    mean_rr = params.mean_rr_s
    std_rr = params.std_hr_bpm * 60.0 / params.mean_hr_bpm**2
    if std > 0 and std_rr > 0:
        series = series / std * std_rr
    else:
        series = np.zeros(n_samples)
    rr = mean_rr + series
    # Physiological floor: never let an RR interval collapse to <= 0.2 s.
    return np.maximum(rr, 0.2)


def _gaussian_wave_drive(
    theta: np.ndarray, omega: np.ndarray, morphology: EcgMorphology
) -> np.ndarray:
    """The z-forcing term of the dynamical model at given phases.

    ``-sum_i a_i * dtheta_i * exp(-dtheta_i^2 / (2 b_i^2))`` where
    ``dtheta_i = (theta - theta_i)`` wrapped to ``[-pi, pi)``.  The ``a_i``
    here follow the ECGSYN convention where the drive is additionally scaled
    by the angular velocity (so faster beats are narrower in time, not in
    phase).
    """
    th, a, b = morphology.arrays()
    dtheta = (theta[:, None] - th[None, :] + math.pi) % (2.0 * math.pi) - math.pi
    bumps = a[None, :] * dtheta * np.exp(-(dtheta**2) / (2.0 * b[None, :] ** 2))
    return -omega * np.sum(bumps, axis=1)


def synthesize_ecg(
    duration_s: float,
    fs_hz: float = 360.0,
    *,
    morphology: EcgMorphology = NORMAL_MORPHOLOGY,
    rr_params: RRParameters = RRParameters(),
    amplitude_mv: float = 1.0,
    z_baseline_mv: float = 0.0,
    resp_rate_hz: float = 0.25,
    resp_amplitude_mv: float = 0.005,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Synthesize an ECG waveform in millivolts (fast phase-domain path).

    Parameters
    ----------
    duration_s:
        Length of the waveform in seconds.
    fs_hz:
        Output sampling rate (360 Hz matches MIT-BIH).
    morphology:
        PQRST wave parameters; see :data:`NORMAL_MORPHOLOGY`.
    rr_params:
        Heart-rate-variability parameters.
    amplitude_mv:
        Peak R-wave target amplitude in mV (the waveform is rescaled so the
        R peak is approximately this).
    z_baseline_mv:
        Constant baseline offset added after scaling.
    resp_rate_hz, resp_amplitude_mv:
        Respiratory baseline coupling of the model's ``z0(t)`` term.
    seed, rng:
        Randomness control; pass ``rng`` to share a generator, else ``seed``.

    Returns
    -------
    numpy.ndarray
        Millivolt samples, shape
        ``(round(duration_s * fs_hz),)``.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if fs_hz <= 0:
        raise ValueError("fs_hz must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    n = int(round(duration_s * fs_hz))
    dt = 1.0 / fs_hz

    # RR process, resampled onto the output grid, gives the instantaneous
    # angular velocity omega(t) = 2*pi / RR(t).
    rr = rr_tachogram(n, fs_hz, rr_params, rng)
    omega = 2.0 * math.pi / rr

    # Phase integration: on the limit cycle dtheta/dt = omega exactly.
    theta = np.empty(n)
    theta0 = rng.uniform(-math.pi, math.pi)
    theta[0] = theta0
    if n > 1:
        theta[1:] = theta0 + np.cumsum(omega[:-1]) * dt
    theta = (theta + math.pi) % (2.0 * math.pi) - math.pi

    # z obeys z' = drive(t) - (z - z0(t)).  Exact discretization of the
    # linear part: z[k+1] = e^{-dt} z[k] + (1 - e^{-dt}) u[k] with
    # u = z0 + drive, implemented as a first-order IIR filter.
    t = np.arange(n) * dt
    z0 = resp_amplitude_mv * np.sin(2.0 * math.pi * resp_rate_hz * t)
    u = z0 + _gaussian_wave_drive(theta, omega, morphology)
    decay = float(np.exp(-dt))
    zi_gain = 1.0 - decay
    z = sps.lfilter([zi_gain], [1.0, -decay], u)

    # Rescale so the R peak sits near amplitude_mv.
    peak = float(np.max(np.abs(z)))
    if peak > 0:
        z = z * (amplitude_mv / peak)
    return z + z_baseline_mv


def synthesize_loop(
    duration_s: float,
    fs_hz: float = 360.0,
    *,
    morphology: EcgMorphology = NORMAL_MORPHOLOGY,
    rr_params: RRParameters = RRParameters(),
    amplitude_mv: float = 1.0,
    z_baseline_mv: float = 0.0,
    resp_rate_hz: float = 0.25,
    resp_amplitude_mv: float = 0.005,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Per-sample scalar oracle for :func:`synthesize_ecg`.

    Same model, same randomness, same discretization — but the phase
    accumulation, forcing evaluation and exponential-integrator update
    run one sample at a time in Python.  The output is **bit-identical**
    to the vectorized path: the accumulations it unrolls (``cumsum``, the
    5-wave bump sum, the first-order IIR) match numpy's sequential
    semantics exactly, and numpy's elementwise transcendentals are
    length-independent.  Kept as the differential-testing oracle.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if fs_hz <= 0:
        raise ValueError("fs_hz must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    n = int(round(duration_s * fs_hz))
    dt = 1.0 / fs_hz

    # Identical RNG draw order to synthesize_ecg: tachogram, then theta0.
    rr = rr_tachogram(n, fs_hz, rr_params, rng)
    omega = 2.0 * math.pi / rr
    theta0 = rng.uniform(-math.pi, math.pi)

    theta = np.empty(n)
    accumulated = omega.dtype.type(0.0)
    theta[0] = (theta0 + math.pi) % (2.0 * math.pi) - math.pi
    for k in range(1, n):
        accumulated = accumulated + omega[k - 1]
        theta[k] = (theta0 + accumulated * dt + math.pi) % (2.0 * math.pi) - math.pi

    decay = float(np.exp(-dt))
    zi_gain = 1.0 - decay
    two_pi_resp = 2.0 * math.pi * resp_rate_hz
    z = np.empty(n)
    state = 0.0
    for k in range(n):
        z0_k = resp_amplitude_mv * np.sin(two_pi_resp * (np.float64(k) * dt))
        drive_k = _gaussian_wave_drive(
            theta[k : k + 1], omega[k : k + 1], morphology
        )[0]
        u_k = z0_k + drive_k
        y_k = zi_gain * u_k + state
        state = decay * y_k
        z[k] = y_k

    peak = float(np.max(np.abs(z)))
    if peak > 0:
        z = z * (amplitude_mv / peak)
    return z + z_baseline_mv


def integrate_reference(
    duration_s: float,
    fs_hz: float = 360.0,
    *,
    morphology: EcgMorphology = NORMAL_MORPHOLOGY,
    mean_hr_bpm: float = 60.0,
    amplitude_mv: float = 1.0,
    oversample: int = 2,
    warmup_s: float = 3.0,
) -> np.ndarray:
    """Reference RK4 integration of the full three-state ECGSYN ODE.

    Deterministic (fixed heart rate, no HRV) and slow; exists so the test
    suite can validate the fast phase-domain integrator against the genuine
    dynamical system.  A warm-up interval is integrated and discarded so
    the returned waveform starts on the settled limit cycle.  Returns the 1-D
    waveform in millivolts.
    """
    if duration_s <= 0 or fs_hz <= 0:
        raise ValueError("duration and sampling rate must be positive")
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    if warmup_s < 0:
        raise ValueError("warmup cannot be negative")
    th, a, b = morphology.arrays()
    omega = 2.0 * math.pi * mean_hr_bpm / 60.0

    def rhs(state: np.ndarray) -> np.ndarray:
        x, y, z = state
        alpha = 1.0 - np.hypot(x, y)
        theta = np.arctan2(y, x)
        dtheta = (theta - th + math.pi) % (2.0 * math.pi) - math.pi
        dz = -float(
            np.sum(a * omega * dtheta * np.exp(-(dtheta**2) / (2.0 * b**2)))
        ) - z
        return np.array([alpha * x - omega * y, alpha * y + omega * x, dz])

    n_out = int(round(duration_s * fs_hz))
    n_warm = int(round(warmup_s * fs_hz))
    h = 1.0 / (fs_hz * oversample)
    # Start at theta = -pi on the unit circle (beginning of a cycle).
    state = np.array([-1.0, 0.0, 0.0])
    out = np.empty(n_out)
    for k in range(n_warm + n_out):
        if k >= n_warm:
            out[k - n_warm] = state[2]
        for _ in range(oversample):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = out - float(np.mean(out))
    peak = float(np.max(np.abs(out)))
    if peak > 0:
        out = out * (amplitude_mv / peak)
    return out
