"""Per-sample reference versions of the ECG synthesizers.

``synthesize_ecg`` and the database's ``_synthesize_with_beats`` run as
array kernels (``cumsum`` phase, ``lfilter`` output stage).  These are
the same discretizations executed one sample at a time, kept only so the
tests can assert bit identity (``docs/encoding.md``), plus an RK4
integration of the full three-state ECGSYN ODE that the fast path is
checked against for morphology.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.signals.database import (
    _LEAD_MORPHOLOGIES,
    RecordProfile,
    _r_peak_annotations,
)
from repro.signals.ecgsyn import (
    NORMAL_MORPHOLOGY,
    EcgMorphology,
    RRParameters,
    _gaussian_wave_drive,
    rr_tachogram,
)
from repro.signals.records import BeatAnnotation


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


def synthesize_with_beats_loop(
    profile: RecordProfile,
    duration_s: float,
    fs_hz: float,
    lead: str = "MLII",
) -> Tuple[np.ndarray, List[BeatAnnotation]]:
    """Per-sample scalar oracle for :func:`_synthesize_with_beats`.

    Same randomness, beat schedule and discretization, executed one
    sample at a time (phase accumulation, per-beat morphology selection,
    forcing evaluation and the exponential-integrator update).  The
    waveform and annotations are **bit-identical** to the array path —
    asserted by the test suite.
    """
    if lead not in _LEAD_MORPHOLOGIES:
        raise KeyError(
            f"unknown lead {lead!r}; choose from {sorted(_LEAD_MORPHOLOGIES)}"
        )
    rng = np.random.default_rng(profile.seed + 1)
    n = int(round(duration_s * fs_hz))
    dt = 1.0 / fs_hz

    rr = rr_tachogram(n, fs_hz, profile.rr_params(), rng)
    omega = 2.0 * np.pi / rr

    theta_unwrapped = np.empty(n)
    theta = np.empty(n)
    beat_index = np.empty(n, dtype=int)
    accumulated = omega.dtype.type(0.0)
    theta_unwrapped[0] = -np.pi
    for k in range(1, n):
        accumulated = accumulated + omega[k - 1]
        theta_unwrapped[k] = -np.pi + accumulated * dt
    for k in range(n):
        theta[k] = (theta_unwrapped[k] + np.pi) % (2.0 * np.pi) - np.pi
        beat_index[k] = int(
            np.floor((theta_unwrapped[k] + np.pi) / (2.0 * np.pi))
        )
    n_beats = int(beat_index.max()) + 1

    beat_is_pvc = rng.uniform(size=n_beats) < profile.pvc_probability
    sinus_morph, pvc_morph = _LEAD_MORPHOLOGIES[lead]

    decay = float(np.exp(-dt))
    zi_gain = 1.0 - decay
    z = np.empty(n)
    state = 0.0
    for k in range(n):
        morph = pvc_morph if beat_is_pvc[beat_index[k]] else sinus_morph
        drive_k = _gaussian_wave_drive(
            theta[k : k + 1], omega[k : k + 1], morph
        )[0]
        z0_k = 0.005 * np.sin(2.0 * np.pi * 0.25 * (np.float64(k) * dt))
        y_k = zi_gain * (z0_k + drive_k) + state
        state = decay * y_k
        z[k] = y_k

    peak = float(np.max(np.abs(z))) if n else 0.0
    if peak > 0:
        z = z * (profile.amplitude_mv / peak)
    return z, _r_peak_annotations(theta, beat_index, beat_is_pvc, n_beats)
