"""Tensor / vector / complex-vector pictures of the noncommutativity object."""

import numpy as np
import pytest

from nced import lorentz as lo
from nced import noncomm as nc
from nced.errors import NotAntisymmetricError
from conftest import rand_unit_element


def rand_vectors(rng):
    return nc.ThetaVectors(rng.normal(size=3), rng.normal(size=3))


def test_zero_tensor():
    v = nc.vectors_from_tensor(np.zeros((4, 4)))
    assert np.array_equal(v.epsilon, np.zeros(3))
    assert np.array_equal(v.theta, np.zeros(3))


def test_electric_entry():
    t = np.zeros((4, 4))
    t[1, 0], t[0, 1] = 1.0, -1.0
    v = nc.vectors_from_tensor(t)
    assert np.array_equal(v.epsilon, [1.0, 0.0, 0.0])
    assert np.array_equal(v.theta, np.zeros(3))


def test_magnetic_entry():
    t = np.zeros((4, 4))
    t[1, 2], t[2, 1] = 1.0, -1.0
    v = nc.vectors_from_tensor(t)
    assert np.array_equal(v.theta, [0.0, 0.0, -1.0])
    assert np.array_equal(v.epsilon, np.zeros(3))


def test_not_antisymmetric_rejected():
    t = np.zeros((4, 4))
    t[0, 1] = t[1, 0] = 1.0
    with pytest.raises(NotAntisymmetricError):
        nc.vectors_from_tensor(t)


def test_tensor_roundtrip_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rand_vectors(rng)
        t = nc.tensor_from_vectors(v)
        back = nc.vectors_from_tensor(t)
        assert np.array_equal(back.epsilon, v.epsilon)
        assert np.array_equal(back.theta, v.theta)
        assert np.array_equal(t, -t.T)


def test_electric_block_position():
    v = nc.ThetaVectors(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    t = nc.tensor_from_vectors(v)
    assert t[3, 0] == 1.0 and t[0, 3] == -1.0


def test_k_from_vectors_examples():
    assert np.array_equal(
        nc.k_from_vectors(nc.ThetaVectors(np.zeros(3), np.array([0, 0, 1.0]))),
        np.array([0, 0, 1.0 + 0j]),
    )
    assert np.array_equal(
        nc.k_from_vectors(nc.ThetaVectors(np.array([0, 0, 1.0]), np.zeros(3))),
        np.array([0, 0, -1.0j]),
    )
    k = nc.k_from_vectors(nc.ThetaVectors(np.array([0, -1.0, 0]), np.array([1.0, 0, 0])))
    assert np.array_equal(k, np.array([1.0, 1.0j, 0.0]))
    assert k @ k == 0.0


def test_vectors_from_k_roundtrip():
    """K = theta - i*epsilon keeps both vectors exactly: theta = Re K and
    epsilon = -Im K."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rand_vectors(rng)
        k = nc.k_from_vectors(v)
        assert np.array_equal(k.real, v.theta)
        assert np.array_equal(-k.imag, v.epsilon)


def test_invariants_fields():
    rng = np.random.default_rng(2)
    v = rand_vectors(rng)
    inv = nc.invariants(nc.k_from_vectors(v))
    th, eps = v.theta, v.epsilon
    assert abs(inv.re_part - (th @ th - eps @ eps)) <= 1e-14 * max(1, abs(inv.re_part))
    assert abs(inv.im_part - (-2 * th @ eps)) <= 1e-14 * max(1, abs(inv.im_part))
    assert abs(inv.square - (inv.re_part + 1j * inv.im_part)) <= 1e-14


def test_invariants_examples():
    assert nc.invariants(np.array([1.0, 0, 0], complex)).square == 1.0
    assert nc.invariants(np.array([1.0, 1.0j, 0], complex)).square == 0.0


def test_k_square_lorentz_invariant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = rng.normal(size=3) + 1j * rng.normal(size=3)
        L = rand_unit_element(rng)
        k2 = lo.act_vector(L, k)
        drift = abs(k2 @ k2 - k @ k)
        assert drift <= 1e-12 * max(1.0, abs(k @ k)) * max(1.0, lo.abs2(L) ** 2)


def test_classify_cases():
    assert nc.classify(np.array([0, 0, 1.0], complex)) == nc.NONISOTROPIC
    assert nc.classify(np.array([1.0, 1.0j, 0], complex)) == nc.ISOTROPIC
    assert nc.classify(np.zeros(3, complex)) == nc.ZERO


def test_classify_invariant_under_action():
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = rng.normal(size=3) + 1j * rng.normal(size=3)
        if abs(k @ k) < 0.1 * np.sum(np.abs(k) ** 2):
            continue  # stay 10x away from the class boundary
        L = rand_unit_element(rng)
        assert nc.classify(lo.act_vector(L, k)) == nc.classify(k)


def test_cross_picture_consistency():
    """Tensor transport on both indices agrees with the complex 3-vector
    action; this pins every sign convention at once."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rand_vectors(rng)
        L = rand_unit_element(rng)
        m = lo.lorentz_matrix4(L)
        transported = m @ nc.tensor_from_vectors(v) @ m.T
        k_tensor_route = nc.k_from_vectors(nc.vectors_from_tensor(transported))
        k_vector_route = lo.act_vector(L, nc.k_from_vectors(v))
        scale = max(1.0, float(np.max(np.abs(m)) ** 2))
        assert np.max(np.abs(k_tensor_route - k_vector_route)) <= 1e-11 * scale


def test_phi_view():
    rng = np.random.default_rng(6)
    v = rand_vectors(rng)
    k = nc.k_from_vectors(v)
    phi = nc.phi_from_k(k)
    assert np.array_equal(phi, v.theta + 1j * v.epsilon)
