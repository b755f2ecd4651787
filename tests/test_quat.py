import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatkge import quat
from quatkge.errors import ZeroQuaternionError

import oracles
from oracles import Quaternion


class TestScalarOps:
    def test_add(self):
        assert (Quaternion(1, 2, 3, 4) + Quaternion(5, 6, 7, 8)) == Quaternion(6, 8, 10, 12)

    def test_sub_self_cancels(self):
        q = Quaternion(1, 2, 3, 4)
        assert q - q == Quaternion(0, 0, 0, 0)

    def test_additive_identity(self):
        assert Quaternion.ZERO + Quaternion(5, 6, 7, 8) == Quaternion(5, 6, 7, 8)

    def test_conjugate(self):
        assert Quaternion(1, 2, 3, 4).conjugate() == Quaternion(1, -2, -3, -4)
        assert Quaternion(5, 0, 0, 0).conjugate() == Quaternion(5, 0, 0, 0)

    def test_conjugate_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = Quaternion(*rng.standard_normal(4))
            assert q.conjugate().conjugate() == q

    def test_norm_sq(self):
        assert Quaternion(1, 2, 3, 4).norm_sq() == 30.0
        assert Quaternion.ZERO.norm_sq() == 0.0
        assert Quaternion.ONE.norm_sq() == 1.0

    def test_magnitude(self):
        assert Quaternion(3, 4, 0, 0).magnitude() == 5.0
        assert Quaternion.ONE.magnitude() == 1.0
        assert Quaternion.ZERO.magnitude() == 0.0

    def test_dot(self):
        assert Quaternion(1, 2, 3, 4).dot(Quaternion(5, 6, 7, 8)) == 70.0
        assert Quaternion.ONE.dot(Quaternion.I) == 0.0

    def test_self_dot_is_norm_sq(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = Quaternion(*rng.standard_normal(4))
            assert q.dot(q) == pytest.approx(q.norm_sq(), rel=1e-15)

    def test_hamilton(self):
        assert (Quaternion(1, 2, 3, 4) * Quaternion(5, 6, 7, 8)
                == Quaternion(-60, 12, 30, 24))

    def test_hamilton_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = Quaternion(*rng.standard_normal(4))
            assert Quaternion.ONE * q == q

    def test_normalize(self):
        n = Quaternion(3, 4, 0, 0).normalize()
        assert n == Quaternion(0.6, 0.8, 0, 0)
        assert Quaternion.ONE.normalize() == Quaternion.ONE

    def test_normalize_zero_raises(self):
        with pytest.raises(oracles.ZeroQuaternionError):
            Quaternion.ZERO.normalize()
        with pytest.raises(oracles.ZeroQuaternionError):
            Quaternion(1e-13, 0, 0, 0).normalize()


class TestBasisTable:
    """The i, j, k multiplication table must hold exactly."""

    def test_squares(self):
        minus_one = Quaternion(-1, 0, 0, 0)
        for unit in (Quaternion.I, Quaternion.J, Quaternion.K):
            assert unit * unit == minus_one

    def test_ijk(self):
        assert Quaternion.I * Quaternion.J * Quaternion.K == Quaternion(-1, 0, 0, 0)

    @pytest.mark.parametrize("left,right,expected", [
        (Quaternion.I, Quaternion.J, Quaternion.K),
        (Quaternion.J, Quaternion.K, Quaternion.I),
        (Quaternion.K, Quaternion.I, Quaternion.J),
    ])
    def test_cyclic_products(self, left, right, expected):
        assert left * right == expected
        assert right * left == -expected

    def test_noncommutativity_witness(self):
        ij = Quaternion.I * Quaternion.J
        ji = Quaternion.J * Quaternion.I
        assert ij != ji
        assert ij.d == -ji.d == 1.0


class TestQuatVec:
    """k-coordinate quaternion vectors: (4, k) arrays in the array layer."""

    @staticmethod
    def coordinate(v, i):
        return Quaternion(*(float(x) for x in v[:, i]))

    def test_k1_reduces_to_scalar(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        vx, vy = x.reshape(4, 1), y.reshape(4, 1)
        sx, sy = Quaternion(*x), Quaternion(*y)
        np.testing.assert_allclose(quat.hamilton(vx, vy)[:, 0],
                                   (sx * sy).as_tuple(), rtol=1e-15)
        np.testing.assert_allclose(quat.dot(vx, vy)[0], sx.dot(sy), rtol=1e-15)
        np.testing.assert_allclose(quat.magnitude(vx)[0], sx.magnitude(), rtol=1e-15)

    def test_hamilton_identity_vec(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((4, 5))
        one = np.stack([np.ones(5), np.zeros(5), np.zeros(5), np.zeros(5)])
        np.testing.assert_array_equal(quat.hamilton(one, v), v)

    def test_hamilton_matches_scalar_per_coordinate(self):
        rng = np.random.default_rng(5)
        vx = rng.standard_normal((4, 3))
        vy = rng.standard_normal((4, 3))
        product = quat.hamilton(vx, vy)
        for i in range(3):
            expected = self.coordinate(vx, i) * self.coordinate(vy, i)
            np.testing.assert_allclose(self.coordinate(product, i).as_tuple(),
                                       expected.as_tuple(), rtol=1e-15)

    def test_normalize_per_coordinate(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((4, 32))
        np.testing.assert_allclose(quat.magnitude(quat.normalize(v)), 1.0, atol=1e-12)

    def test_normalize_zero_coordinate_raises(self):
        parts = np.ones((4, 3))
        parts[:, 1] = 0.0
        with pytest.raises(ZeroQuaternionError):
            quat.normalize(parts)

    def test_conjugate_and_norm(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((4, 6))
        np.testing.assert_allclose(quat.dot(v, v), quat.norm_sq(v), rtol=1e-15)
        np.testing.assert_array_equal(quat.conjugate(v)[0], v[0])
        np.testing.assert_array_equal(quat.conjugate(v)[1], -v[1])


@pytest.mark.parametrize("k", [1, 4, 32])
class TestAlgebraProperties:
    """Randomized identities on component-stacked arrays."""

    TRIALS = 10_000

    def _draw(self, k, seed, count=2):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((self.TRIALS, 4, k)) for _ in range(count)]

    def test_norm_multiplicativity(self, k):
        x, y = self._draw(k, seed=10)
        lhs = quat.magnitude(quat.hamilton(x, y))
        rhs = quat.magnitude(x) * quat.magnitude(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_product_with_conjugate(self, k):
        (x,) = self._draw(k, seed=11, count=1)
        prod = quat.hamilton(x, quat.conjugate(x))
        np.testing.assert_allclose(prod[:, 0, :], quat.norm_sq(x), rtol=1e-9)
        np.testing.assert_allclose(prod[:, 1:, :], 0.0, atol=1e-9)

    def test_associativity(self, k):
        x, y, z = self._draw(k, seed=12, count=3)
        lhs = quat.hamilton(quat.hamilton(x, y), z)
        rhs = quat.hamilton(x, quat.hamilton(y, z))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_conjugate_involution(self, k):
        (x,) = self._draw(k, seed=13, count=1)
        np.testing.assert_array_equal(quat.conjugate(quat.conjugate(x)), x)

    def test_conjugate_reverses_products(self, k):
        x, y = self._draw(k, seed=14)
        lhs = quat.conjugate(quat.hamilton(x, y))
        rhs = quat.hamilton(quat.conjugate(y), quat.conjugate(x))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def expression_product(x, y):
    """The Hamilton product as one numpy expression per component."""
    a1, b1, c1, d1 = x[..., 0, :], x[..., 1, :], x[..., 2, :], x[..., 3, :]
    a2, b2, c2, d2 = y[..., 0, :], y[..., 1, :], y[..., 2, :], y[..., 3, :]
    return np.stack([a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                     a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                     a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                     a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2], axis=-2)


def component_major(shape):
    """An empty (..., 4, k) view of (4, ..., k) memory."""
    return np.moveaxis(np.empty((4,) + shape[:-2] + shape[-1:]), 0, -2)


class TestHamiltonOut:
    # The operand shapes of the package's callers: training and the property
    # checks pair (B, 4, k) rows, a ranking query pairs (4, k) rows, and a
    # single row can meet a batch on either side; plus two leading axes.
    SHAPES = [((5, 4, 3), (5, 4, 3)), ((4, 3), (4, 3)), ((5, 4, 3), (4, 3)),
              ((4, 3), (5, 4, 3)), ((1, 4, 3), (5, 4, 3)), ((2, 5, 4, 3), (5, 4, 3))]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shapes=st.sampled_from(SHAPES),
           transposed=st.booleans())
    def test_out_equals_allocating_call(self, data, shapes, transposed):
        value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
        x, y = (data.draw(arrays(np.float64, shape, elements=value)) for shape in shapes)
        if transposed:   # component-major operands, as the training step passes them
            x, y = (np.moveaxis(np.ascontiguousarray(np.moveaxis(v, -2, 0)), 0, -2)
                    for v in (x, y))
        expected = expression_product(x, y)
        allocated = quat.hamilton(x, y)
        out = component_major(expected.shape)
        written = quat.hamilton(x, y, out=out)
        assert written is out and allocated.flags.c_contiguous
        for got in (allocated, written):
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_conjugate_out(self):
        x = np.random.default_rng(15).standard_normal((6, 4, 5))
        out = component_major(x.shape)
        assert quat.conjugate(x, out=out) is out
        np.testing.assert_array_equal(out, quat.conjugate(x))
