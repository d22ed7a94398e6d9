"""Dual rotations: discrete invariance of the constitutive pair."""

import numpy as np
import pytest

from nced import constitutive as ct
from nced import duality as du
from nced import noncomm as nc
from nced.errors import InconsistentInputError


def consistent_state(rng):
    tv = nc.ThetaVectors(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    k = nc.k_from_vectors(tv)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    h = ct.h_from_f(f, k)
    return du.gr_from_fh(f, h), k


def grid_distance_to_quarter(chi):
    return abs((chi + np.pi / 4) % (np.pi / 2) - np.pi / 4)


def test_gr_roundtrip_exact():
    rng = np.random.default_rng(0)
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    h = rng.normal(size=3) + 1j * rng.normal(size=3)
    s = du.gr_from_fh(f, h)
    f2, h2 = du.fh_from_gr(s)
    assert np.max(np.abs(f2 - f)) <= 1e-15 * max(1.0, np.max(np.abs(f)))
    assert np.max(np.abs(h2 - h)) <= 1e-15 * max(1.0, np.max(np.abs(h)))


def test_dual_rotate_special_angles():
    rng = np.random.default_rng(1)
    s, k = consistent_state(rng)
    s0, k0 = du.dual_rotate(s, k, 0.0)
    assert np.array_equal(s0.G, s.G) and np.array_equal(s0.R, s.R)
    assert np.array_equal(k0, k)
    sp, kp = du.dual_rotate(s, k, np.pi)
    assert np.max(np.abs(sp.G + s.G)) <= 1e-15
    assert np.max(np.abs(sp.R + s.R)) <= 1e-15
    assert np.max(np.abs(kp + k)) <= 1e-15
    sq, kq = du.dual_rotate(s, k, np.pi / 2)
    assert np.max(np.abs(sq.G - 1j * s.G)) <= 1e-15
    assert np.max(np.abs(sq.R + 1j * s.R)) <= 1e-15
    assert np.max(np.abs(kq - 1j * k)) <= 1e-15


def test_residual_zero_on_consistent_states():
    rng = np.random.default_rng(2)
    for _ in range(100):
        s, k = consistent_state(rng)
        assert du.constitutive_residual_gr(s, k) <= 1e-12


def test_residual_zero_on_zero_fields():
    s = du.GRState(np.zeros(3, complex), np.zeros(3, complex))
    assert du.constitutive_residual_gr(s, np.ones(3, complex)) == 0.0


def test_residual_positive_on_inconsistent_states():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(50):
        f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        h = ct.h_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        k = nc.k_from_vectors(
            nc.ThetaVectors(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        )
        if du.constitutive_residual_gr(du.gr_from_fh(f, h), k) > 1e-3:
            hits += 1
    assert hits >= 48  # generic: essentially always


def test_scan_rejects_inconsistent_input():
    rng = np.random.default_rng(4)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    h = f + 0.5
    k = np.array([0.3, 0, 0], complex)
    with pytest.raises(InconsistentInputError):
        du.duality_scan(du.gr_from_fh(f, h), k, 16)


def test_scan_rejects_small_n():
    rng = np.random.default_rng(5)
    s, k = consistent_state(rng)
    with pytest.raises(ValueError):
        du.duality_scan(s, k, 7)


def test_scan_zero_structure():
    rng = np.random.default_rng(6)
    s, k = consistent_state(rng)
    chis, res = du.duality_scan(s, k, 720)
    assert chis.shape == res.shape == (720,)
    for idx in (0, 180, 360, 540):
        assert abs(chis[idx] - idx * np.pi / 360) <= 1e-12
        assert res[idx] <= 1e-11
    far = [r for chi, r in zip(chis, res) if grid_distance_to_quarter(chi) >= np.pi / 36]
    assert min(far) >= 1e-6


def test_scan_quarter_period_pointwise():
    rng = np.random.default_rng(7)
    s, k = consistent_state(rng)
    _, res = du.duality_scan(s, k, 720)
    assert np.max(np.abs(res - np.roll(res, -180))) <= 1e-11


def test_pi_half_point_via_explicit_rotation():
    rng = np.random.default_rng(8)
    s, k = consistent_state(rng)
    for j in range(4):
        rotated, k_rot = du.dual_rotate(s, k, j * np.pi / 2)
        assert du.constitutive_residual_gr(rotated, k_rot) <= 1e-11


def test_quarter_off_angle_positive():
    # chi = pi/4 breaks the invariance at order-one magnitude
    E = np.array([1.0, 0, 0])
    B = np.array([0, 1.0, 0])
    tv = nc.ThetaVectors(np.array([0.2, 0, 0]), np.array([0, 0, 0.3]))
    k = nc.k_from_vectors(tv)
    f = ct.f_vector(E, B)
    s = du.gr_from_fh(f, ct.h_from_f(f, k))
    rotated, k_rot = du.dual_rotate(s, k, np.pi / 4)
    assert du.constitutive_residual_gr(rotated, k_rot) > 1e-4


def test_commutative_limit_restores_continuous_duality():
    rng = np.random.default_rng(9)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    s = du.gr_from_fh(f, f.copy())  # K = 0 forces h = f
    _, res = du.duality_scan(s, np.zeros(3, complex), 720)
    assert res.max() <= 1e-12


def test_an_overflowed_orientation_makes_the_residual_nan():
    """At K = 1e120·(1, −i, 0) the inverse orientation of the analyzer's state
    overflows to a NaN component while the forward one stays finite. The
    residual is NaN, not the finite orientation's defect; swapping the
    orientations (R → −R swaps f and h) gives NaN too. No bound passes a NaN
    residual, so the scan rejects the state."""
    k = 1e120 * np.array([1.0, -1.0j, 0.0])
    f = ct.f_vector(du.GENERIC_E, du.GENERIC_B)
    with np.errstate(all="ignore"):
        s = du.gr_from_fh(f, ct.h_from_f(f, k))
        assert np.isnan(du.constitutive_residual_gr(s, k))
        assert np.isnan(du.constitutive_residual_gr(du.GRState(s.G, -s.R), k))
        # the forward orientation alone is finite
        f_, h_ = du.fh_from_gr(s)
        assert np.all(np.isfinite(ct.h_from_f(f_, k) - h_))
        with pytest.raises(InconsistentInputError, match=r"\(residual nan\)"):
            du.duality_scan(s, k, 360)

