"""Pointwise equivalence checker for the two forms of the field equations.

A FieldSample carries the four field vectors and all their first derivatives
at one spacetime point, unconstrained by any dynamics.  ``vector_residuals``
evaluates the classical media equations (divergence/curl form);
``quaternionic_residual`` evaluates the single biquaternion equation

    grad (f + h) + [ grad (f - h) ]^* = 0,    grad = -i d_t + e_a d_a

with ``f = B - iE``, ``h = H - iD`` and ``*`` the biquaternion complex
conjugation.  The two vanish on exactly the same samples; the linear map
between them is frozen in the tests.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import quat


@dataclass
class FieldSample:
    """Field values and first derivatives at a point.

    Gradients are 3x3 with ``grad[i, j] = d_i F_j``.
    """
    E: np.ndarray
    B: np.ndarray
    D: np.ndarray
    H: np.ndarray
    dtE: np.ndarray
    dtB: np.ndarray
    dtD: np.ndarray
    dtH: np.ndarray
    gE: np.ndarray
    gB: np.ndarray
    gD: np.ndarray
    gH: np.ndarray


class MaxwellResiduals(NamedTuple):
    faraday: np.ndarray   # rot E + dt B
    div_b: float
    ampere: np.ndarray    # rot H - dt D
    div_d: float


def _div(g):
    return g[0, 0] + g[1, 1] + g[2, 2]


def _rot(g):
    return np.array([g[1, 2] - g[2, 1], g[2, 0] - g[0, 2], g[0, 1] - g[1, 0]])


def vector_residuals(s):
    return MaxwellResiduals(
        faraday=_rot(s.gE) + s.dtB,
        div_b=float(_div(s.gB)),
        ampere=_rot(s.gH) - s.dtD,
        div_d=float(_div(s.gD)),
    )


def quaternionic_residual(s):
    """Left side of the biquaternion field equation as a (4,) quaternion."""
    div_f = _div(s.gB) - 1j * _div(s.gE)
    div_h = _div(s.gH) - 1j * _div(s.gD)
    rot_f = _rot(s.gB) - 1j * _rot(s.gE)
    rot_h = _rot(s.gH) - 1j * _rot(s.gD)
    dt_f = s.dtB - 1j * s.dtE
    dt_h = s.dtH - 1j * s.dtD

    div_g, div_r = div_f + div_h, div_f - div_h
    rot_g, rot_r = rot_f + rot_h, rot_f - rot_h
    dt_g, dt_r = dt_f + dt_h, dt_f - dt_h

    # grad G = -div G + (rot G - i dt G); conjugation of grad R flips the
    # vector sign back, leaving scalar -conj(div R) and vector
    # -(conj(rot R) + i conj(dt R))
    w_s = -div_g - np.conj(div_r)
    w_v = (rot_g - 1j * dt_g) - (np.conj(rot_r) + 1j * np.conj(dt_r))
    return quat(w_s, w_v)


def lincomb(ca, a, cb, b):
    """Componentwise linear combination of two samples."""
    kw = {}
    for name in FieldSample.__dataclass_fields__:
        kw[name] = ca * getattr(a, name) + cb * getattr(b, name)
    return FieldSample(**kw)


def random_sample(rng):
    """Unconstrained derivative data; exercises the algebraic equivalence."""
    u = lambda shape: rng.uniform(-1.0, 1.0, shape)
    return FieldSample(
        E=u(3), B=u(3), D=u(3), H=u(3),
        dtE=u(3), dtB=u(3), dtD=u(3), dtH=u(3),
        gE=u((3, 3)), gB=u((3, 3)), gD=u((3, 3)), gH=u((3, 3)),
    )


def plane_wave_sample(t, r):
    """Vacuum plane wave E = x cos(z - t), B = y cos(z - t), D = E, H = B,
    with analytic derivatives."""
    z = r[2]
    c, s = np.cos(z - t), np.sin(z - t)
    E = np.array([c, 0.0, 0.0])
    B = np.array([0.0, c, 0.0])
    dtE = np.array([s, 0.0, 0.0])
    dtB = np.array([0.0, s, 0.0])
    gE = np.zeros((3, 3))
    gE[2, 0] = -s
    gB = np.zeros((3, 3))
    gB[2, 1] = -s
    return FieldSample(
        E=E, B=B.copy(), D=E.copy(), H=B.copy(),
        dtE=dtE, dtB=dtB, dtD=dtE.copy(), dtH=dtB.copy(),
        gE=gE, gB=gB, gD=gE.copy(), gH=gB.copy(),
    )

