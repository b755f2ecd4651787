"""Quaternion algebra on component-stacked ndarrays.

Every function takes arrays of shape ``(..., 4, k)``, component axis at
``-2`` ordered real, i, j, k; a ``(4, k)`` array is one k-coordinate
quaternion vector.

All arithmetic is in 64-bit floats. Quaternions with magnitude at or below
``EPS_NORM`` cannot be normalized and raise ``ZeroQuaternionError``.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroQuaternionError

EPS_NORM = 1e-12


def hamilton(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinate-wise Hamilton product of component-stacked arrays."""
    a1, b1, c1, d1 = x[..., 0, :], x[..., 1, :], x[..., 2, :], x[..., 3, :]
    a2, b2, c2, d2 = y[..., 0, :], y[..., 1, :], y[..., 2, :], y[..., 3, :]
    return np.stack([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ], axis=-2)


def conjugate(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    out[..., 1:, :] *= -1.0
    return out


def norm_sq(x: np.ndarray) -> np.ndarray:
    """Per-coordinate squared magnitude, shape (..., k)."""
    return np.einsum("...ck,...ck->...k", x, x)


def magnitude(x: np.ndarray) -> np.ndarray:
    return np.sqrt(norm_sq(x))


def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-coordinate dot product, shape (..., k)."""
    return np.einsum("...ck,...ck->...k", x, y)


def normalize(x: np.ndarray) -> np.ndarray:
    """Normalize every coordinate quaternion to unit magnitude.

    Raises ZeroQuaternionError if any coordinate magnitude is <= EPS_NORM.
    """
    mag = magnitude(x)
    if np.any(mag <= EPS_NORM):
        raise ZeroQuaternionError("cannot normalize: a coordinate has (near-)zero magnitude")
    return x / mag[..., None, :]
