"""Quaternion algebra: array functions plus a scalar reference class.

The array functions at the bottom operate on component-stacked ndarrays
(shape ``(..., 4, k)``, component axis at ``-2`` ordered real, i, j, k); a
``(4, k)`` array is one k-coordinate quaternion vector. They are the only
algebra the model and training code call. ``Quaternion`` is a plain-float
scalar implementation that the tests use as an independent reference.

All arithmetic is in 64-bit floats. Quaternions with magnitude at or below
``EPS_NORM`` cannot be normalized and raise ``ZeroQuaternionError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroQuaternionError

EPS_NORM = 1e-12


@dataclass(frozen=True, slots=True)
class Quaternion:
    """A scalar quaternion a + b*i + c*j + d*k."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        """Hamilton product (non-commutative) or scalar scaling."""
        if isinstance(other, Quaternion):
            return self.hamilton(other)
        if isinstance(other, (int, float)):
            return Quaternion(self.a * other, self.b * other,
                              self.c * other, self.d * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.a * other, self.b * other,
                              self.c * other, self.d * other)
        return NotImplemented

    def hamilton(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product self * other.

        Equivalent to the scalar/vector form (p0*q0 - v.w, p0*w + q0*v + v x w).
        """
        p0, p1, p2, p3 = self.a, self.b, self.c, self.d
        q0, q1, q2, q3 = other.a, other.b, other.c, other.d
        return Quaternion(
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 + p2 * q0 + p3 * q1 - p1 * q3,
            p0 * q3 + p3 * q0 + p1 * q2 - p2 * q1,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm_sq(self) -> float:
        """Squared magnitude a^2 + b^2 + c^2 + d^2."""
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def magnitude(self) -> float:
        return math.sqrt(self.norm_sq())

    def dot(self, other: "Quaternion") -> float:
        return (self.a * other.a + self.b * other.b
                + self.c * other.c + self.d * other.d)

    def normalize(self, eps: float = EPS_NORM) -> "Quaternion":
        """Scale to unit magnitude; raises ZeroQuaternionError below eps."""
        mag = self.magnitude()
        if mag <= eps:
            raise ZeroQuaternionError(f"cannot normalize quaternion with magnitude {mag!r}")
        return Quaternion(self.a / mag, self.b / mag, self.c / mag, self.d / mag)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


Quaternion.ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
Quaternion.ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
Quaternion.I = Quaternion(0.0, 1.0, 0.0, 0.0)
Quaternion.J = Quaternion(0.0, 0.0, 1.0, 0.0)
Quaternion.K = Quaternion(0.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Array layer: component-stacked ndarrays of shape (..., 4, k).
# ---------------------------------------------------------------------------

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


def normalize(x: np.ndarray, eps: float = EPS_NORM) -> np.ndarray:
    """Normalize every coordinate quaternion to unit magnitude.

    Raises ZeroQuaternionError if any coordinate magnitude is <= eps.
    """
    mag = magnitude(x)
    if np.any(mag <= eps):
        raise ZeroQuaternionError("cannot normalize: a coordinate has (near-)zero magnitude")
    return x / mag[..., None, :]
