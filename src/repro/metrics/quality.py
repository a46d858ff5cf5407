"""Reconstruction-quality metrics used throughout the paper.

The paper (Section IV) evaluates diagnostic quality with the percentage
root-mean-square difference (PRD) and the associated signal-to-noise ratio
(SNR)::

    PRD = ||x - x~||_2 / ||x||_2 * 100
    SNR = -20 * log10(0.01 * PRD)

Both are implemented here verbatim, together with small helpers used by the
experiment drivers (per-window aggregation, the "good quality" threshold the
ECG-compression literature uses, and conversions between the two metrics).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "prd",
    "snr_db",
    "prd_to_snr",
    "clipped_snr_db",
    "SNR_CEILING_DB",
    "snr_to_prd",
    "rmse",
    "nmse",
    "quality_grade",
    "GOOD_PRD_THRESHOLD",
    "VERY_GOOD_PRD_THRESHOLD",
    "mean_snr_over_windows",
]

#: Zigel et al. (2000) quality bands, universally used in the ECG-compression
#: literature (and implicitly by the paper's notion of "good" reconstruction):
#: PRD < 2 -> "very good", PRD < 9 -> "good".
VERY_GOOD_PRD_THRESHOLD = 2.0
GOOD_PRD_THRESHOLD = 9.0

#: SNR ceiling (dB) so a perfect window does not propagate ``inf``.
SNR_CEILING_DB = 120.0


def _as_float_vector(x: Sequence[float]) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    return arr


def prd(original: Sequence[float], reconstructed: Sequence[float]) -> float:
    """Percentage root-mean-square difference between two signals.

    Implements Eq. (IV) of the paper: ``PRD = ||x - x~|| / ||x|| * 100``.

    Parameters
    ----------
    original:
        Reference signal ``x`` (any 1-D sequence).
    reconstructed:
        Reconstruction ``x~``; must have the same length as ``original``.

    Returns
    -------
    float
        PRD in percent.  0.0 means a perfect reconstruction; values above
        100 mean the error has more energy than the signal itself.

    Raises
    ------
    ValueError
        If the two signals differ in length or the reference has zero
        energy (PRD is undefined in that case).
    """
    x = _as_float_vector(original)
    xr = _as_float_vector(reconstructed)
    if x.shape != xr.shape:
        raise ValueError(
            f"signal length mismatch: original has {x.size} samples, "
            f"reconstruction has {xr.size}"
        )
    denom = float(np.linalg.norm(x))
    if denom == 0.0:
        raise ValueError("PRD is undefined for an all-zero reference signal")
    return float(np.linalg.norm(x - xr) / denom * 100.0)


def prd_to_snr(prd_percent: float) -> float:
    """Convert a PRD value (percent) to SNR in dB.

    Implements the paper's ``SNR = -20 log10(0.01 PRD)``.
    """
    if prd_percent <= 0.0:
        raise ValueError("PRD must be positive to convert to a finite SNR")
    return float(-20.0 * np.log10(0.01 * prd_percent))


def clipped_snr_db(prd_percent: float) -> float:
    """:func:`prd_to_snr`, clipped at :data:`SNR_CEILING_DB`.

    A non-positive PRD (a perfect reconstruction) maps to the ceiling.
    """
    if prd_percent <= 0.0:
        return SNR_CEILING_DB
    return min(prd_to_snr(prd_percent), SNR_CEILING_DB)


def snr_to_prd(snr_decibels: float) -> float:
    """Inverse of :func:`prd_to_snr`: SNR in dB back to PRD in percent."""
    return float(100.0 * 10.0 ** (-snr_decibels / 20.0))


def snr_db(original: Sequence[float], reconstructed: Sequence[float]) -> float:
    """Reconstruction SNR in dB, via the paper's PRD definition.

    Equivalent to ``20 log10(||x|| / ||x - x~||)``.  Returns ``inf`` for a
    bit-exact reconstruction.
    """
    p = prd(original, reconstructed)
    if p == 0.0:
        return float("inf")
    return prd_to_snr(p)


def rmse(original: Sequence[float], reconstructed: Sequence[float]) -> float:
    """Root-mean-square error between two equal-length signals."""
    x = _as_float_vector(original)
    xr = _as_float_vector(reconstructed)
    if x.shape != xr.shape:
        raise ValueError("signal length mismatch")
    return float(np.sqrt(np.mean((x - xr) ** 2)))


def nmse(original: Sequence[float], reconstructed: Sequence[float]) -> float:
    """Normalized mean-square error ``||x - x~||^2 / ||x||^2`` (linear)."""
    return (prd(original, reconstructed) / 100.0) ** 2


def quality_grade(prd_percent: float) -> str:
    """Map a PRD value onto the standard quality bands.

    Returns one of ``"very good"``, ``"good"`` or ``"not good"`` following
    the Zigel et al. banding that underlies the paper's "good reconstruction
    quality" claims.
    """
    if prd_percent < 0:
        raise ValueError("PRD cannot be negative")
    if prd_percent < VERY_GOOD_PRD_THRESHOLD:
        return "very good"
    if prd_percent < GOOD_PRD_THRESHOLD:
        return "good"
    return "not good"


def mean_snr_over_windows(prds: Iterable[float]) -> float:
    """Average the *SNR* (dB) corresponding to a collection of window PRDs.

    The paper's Fig. 7 plots "Averaged SNR over records"; the natural reading
    (and the one that reproduces the reported saturation behaviour) is that
    per-window SNRs are averaged in the dB domain.  Windows whose PRD is
    non-positive (perfect reconstructions) are clipped to
    :data:`SNR_CEILING_DB` so that a single exact window cannot drive the
    mean to infinity.
    """
    values = [clipped_snr_db(p) for p in prds]
    if not values:
        raise ValueError("need at least one PRD value")
    return float(np.mean(values))
