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


def hamilton(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Coordinate-wise Hamilton product of component-stacked arrays.

    Each component is summed left to right from its four products, one ufunc
    at a time, into `out`, which must not overlap x or y. A component-major
    `out`, a (..., 4, k) view of (4, ..., k) memory, makes every component
    one contiguous plane; without `out` the product is computed that way and
    returned C-contiguous.
    """
    allocated = out is None
    if allocated:
        shape = x.shape if x.shape == y.shape else np.broadcast_shapes(x.shape, y.shape)
        lead = tuple(range(1, len(shape) - 1))
        out = np.empty((4,) + shape[:-2] + shape[-1:], np.result_type(x, y)).transpose(
            lead + (0, len(shape) - 1))
    a1, b1, c1, d1 = (x[..., c, :] for c in range(4))
    a2, b2, c2, d2 = (y[..., c, :] for c in range(4))
    planes = [out[..., c, :] for c in range(4)]
    product = np.empty(planes[0].shape, out.dtype)
    for plane, (first, *rest) in zip(planes, (
            ((a1, a2), (np.subtract, b1, b2), (np.subtract, c1, c2), (np.subtract, d1, d2)),
            ((a1, b2), (np.add, b1, a2), (np.add, c1, d2), (np.subtract, d1, c2)),
            ((a1, c2), (np.subtract, b1, d2), (np.add, c1, a2), (np.add, d1, b2)),
            ((a1, d2), (np.add, b1, c2), (np.subtract, c1, b2), (np.add, d1, a2)))):
        np.multiply(*first, out=plane)
        for combine, left, right in rest:
            np.multiply(left, right, out=product)
            combine(plane, product, out=plane)
    return np.ascontiguousarray(out) if allocated else out


def conjugate(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Negated imaginary components, into `out` (allocated C-contiguous when None)."""
    if out is None:
        out = np.empty(x.shape, x.dtype)
    out[..., 0, :] = x[..., 0, :]
    np.multiply(x[..., 1:, :], -1.0, out=out[..., 1:, :])
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
