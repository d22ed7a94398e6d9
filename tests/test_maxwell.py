"""Algebraic equivalence of the vector and biquaternion field equations."""

import numpy as np

from nced import maxwell as mx


def frozen_map(vr):
    """The symbolic expansion of the quaternionic residual in terms of the
    vector residuals, computed once by hand and frozen here."""
    w_s = -2.0 * vr.div_b + 2.0j * vr.div_d
    w_v = 2.0 * vr.ampere - 2.0j * vr.faraday
    return w_s, w_v


def zero_sample():
    z3, z33 = np.zeros(3), np.zeros((3, 3))
    return mx.FieldSample(
        E=np.array([1.0, 2, 3]), B=np.array([0.5, 0, -1]),
        D=np.array([1.0, 2, 3]), H=np.array([0.5, 0, -1]),
        dtE=z3.copy(), dtB=z3.copy(), dtD=z3.copy(), dtH=z3.copy(),
        gE=z33.copy(), gB=z33.copy(), gD=z33.copy(), gH=z33.copy(),
    )


def test_static_uniform_fields():
    s = zero_sample()
    vr = mx.vector_residuals(s)
    assert np.max(np.abs(vr.faraday)) == 0.0 and vr.div_b == 0.0
    assert np.max(np.abs(vr.ampere)) == 0.0 and vr.div_d == 0.0
    assert np.max(np.abs(mx.quaternionic_residual(s))) == 0.0


def test_plane_wave_satisfies_both_forms():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(-3, 3)
        r = rng.uniform(-3, 3, 3)
        s = mx.plane_wave_sample(t, r)
        vr = mx.vector_residuals(s)
        assert max(np.max(np.abs(vr.faraday)), abs(vr.div_b),
                   np.max(np.abs(vr.ampere)), abs(vr.div_d)) <= 1e-14
        assert np.max(np.abs(mx.quaternionic_residual(s))) <= 1e-14


def test_linear_field_profile():
    # E = x_hat * z: rot E + dt B = (0, 1, 0), everything else zero
    s = zero_sample()
    for name in ("E", "B", "D", "H"):
        setattr(s, name, np.zeros(3))
    s.E = np.array([0.7, 0.0, 0.0])  # value at the point is irrelevant
    s.gE = np.zeros((3, 3))
    s.gE[2, 0] = 1.0  # d_z E_x = 1
    vr = mx.vector_residuals(s)
    assert np.array_equal(vr.faraday, [0.0, 1.0, 0.0])
    assert vr.div_b == 0.0 and vr.div_d == 0.0
    assert np.max(np.abs(vr.ampere)) == 0.0


def test_frozen_linear_map_on_random_samples():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(300):
        s = mx.random_sample(rng)
        vr = mx.vector_residuals(s)
        q = mx.quaternionic_residual(s)
        w_s, w_v = frozen_map(vr)
        worst = max(worst, abs(q[0] - w_s), float(np.max(np.abs(q[1:] - w_v))))
    assert worst <= 1e-13


def test_vanish_iff():
    # the frozen map is invertible, so one residual vanishes exactly when the
    # other does; check the four channels independently
    rng = np.random.default_rng(2)
    base = mx.random_sample(rng)
    q = mx.quaternionic_residual(base)
    assert np.max(np.abs(q)) > 1e-2  # generic sample is far from a solution

    # kill the vector residuals by hand: quaternionic residual must vanish too
    s = mx.random_sample(rng)
    s.dtB = -mx._rot(s.gE)
    s.dtD = mx._rot(s.gH)
    s.gB[2, 2] = -(s.gB[0, 0] + s.gB[1, 1])
    s.gD[2, 2] = -(s.gD[0, 0] + s.gD[1, 1])
    vr = mx.vector_residuals(s)
    assert max(np.max(np.abs(vr.faraday)), abs(vr.div_b),
               np.max(np.abs(vr.ampere)), abs(vr.div_d)) <= 1e-15
    assert np.max(np.abs(mx.quaternionic_residual(s))) <= 1e-14


def test_linearity_superposition():
    rng = np.random.default_rng(3)
    a, b = mx.random_sample(rng), mx.random_sample(rng)
    combo = mx.lincomb(0.7, a, -1.3, b)
    q = mx.quaternionic_residual(combo)
    qa = mx.quaternionic_residual(a)
    qb = mx.quaternionic_residual(b)
    assert np.max(np.abs(q - (0.7 * qa - 1.3 * qb))) <= 1e-13
    va = mx.vector_residuals(a)
    vb = mx.vector_residuals(b)
    vc = mx.vector_residuals(combo)
    assert np.max(np.abs(vc.faraday - (0.7 * va.faraday - 1.3 * vb.faraday))) <= 1e-13
    assert abs(vc.div_d - (0.7 * va.div_d - 1.3 * vb.div_d)) <= 1e-13


def test_finite_difference_adapter_on_plane_wave():
    """The plane wave's analytic derivatives agree with second-order central
    differences of its own fields."""
    t, r, step = 0.37, np.array([0.1, -0.4, 0.9]), 1e-5
    exact = mx.plane_wave_sample(t, r)
    for f in "EBDH":
        dt = (getattr(mx.plane_wave_sample(t + step, r), f)
              - getattr(mx.plane_wave_sample(t - step, r), f)) / (2 * step)
        assert np.max(np.abs(dt - getattr(exact, "dt" + f))) <= 1e-9
        for i in range(3):
            dr = np.zeros(3)
            dr[i] = step
            g = (getattr(mx.plane_wave_sample(t, r + dr), f)
                 - getattr(mx.plane_wave_sample(t, r - dr), f)) / (2 * step)
            assert np.max(np.abs(g - getattr(exact, "g" + f)[i])) <= 1e-9
    assert np.max(np.abs(mx.quaternionic_residual(exact))) <= 1e-9
