"""Proximal operators and projections used by the convex solvers.

All maps here are the textbook closed forms; the test suite checks each
against its defining variational property (nonexpansiveness, idempotence of
projections, the prox optimality condition) with hypothesis-generated
inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "soft_threshold",
    "project_l2_ball",
]


def soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    """Soft-thresholding ``sign(v) * max(|v| - threshold, 0)``.

    The proximal operator of ``threshold * ||.||_1``; same shape as ``v``.
    """
    if threshold < 0:
        raise ValueError("threshold cannot be negative")
    arr = np.asarray(v, dtype=float)
    return np.sign(arr) * np.maximum(np.abs(arr) - threshold, 0.0)


def project_l2_ball(
    v: np.ndarray, center: np.ndarray, radius: float
) -> np.ndarray:
    """Euclidean projection onto the ball ``||z - center||_2 <= radius``;
    same shape as ``z``."""
    if radius < 0:
        raise ValueError("radius cannot be negative")
    arr = np.asarray(v, dtype=float)
    c = np.asarray(center, dtype=float)
    if arr.shape != c.shape:
        raise ValueError("vector and center shapes differ")
    diff = arr - c
    norm = float(np.linalg.norm(diff))
    if norm <= radius or norm == 0.0:
        return arr.copy()
    return c + diff * (radius / norm)
