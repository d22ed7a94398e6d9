"""First-order nonlinear constitutive relations of the noncommutative vacuum.

Vector form: the excitation pair (D, H) is the field pair (E, B) plus
corrections bilinear-quadratic in the fields and linear in the medium
parameters (epsilon_vec, theta_vec).  Quaternionic form: with
``f = B - iE``, ``h = H - iD`` and ``K = theta - i*epsilon`` the same maps
read

    h = f - (f.K)* f - 1/2 (f.f)* K        (forward)
    f = h + (h.K)* h + 1/2 (h.h)* K        (first-order inverse)

where ``(a.b)*`` is the conjugated bilinear dot product, i.e. minus the
scalar part of the product of the conjugated pure-vector quaternions.  The
cross-form agreement is exact (not merely to first order) and is enforced by
tests.
"""

from typing import NamedTuple

import numpy as np

from . import lorentz
from .algebra import _cmul, cdot


class FieldState(NamedTuple):
    E: np.ndarray
    B: np.ndarray


class ExcitationState(NamedTuple):
    D: np.ndarray
    H: np.ndarray


def f_vector(E, B):
    """Field combination f = B - iE."""
    return np.asarray(B, float) - 1j * np.asarray(E, float)


def h_vector(D, H):
    """Excitation combination h = H - iD."""
    return np.asarray(H, float) - 1j * np.asarray(D, float)


def eb_from_f(f):
    return FieldState(-f.imag.copy(), f.real.copy())


def dh_from_h(h):
    return ExcitationState(-h.imag.copy(), h.real.copy())


def forward(E, B, v):
    """Map (E, B) to (D, H) for medium parameters v = (epsilon, theta)."""
    E, B = np.asarray(E, float), np.asarray(B, float)
    eps, th = np.asarray(v.epsilon, float), np.asarray(v.theta, float)
    a = eps @ E - th @ B
    b = th @ E + eps @ B
    eb = E @ B
    half = 0.5 * (E @ E - B @ B)
    D = E + a * E + b * B + eb * th + half * eps
    H = B + a * B - b * E - eb * eps + half * th
    return ExcitationState(D, H)


def inverse(D, H, v):
    """First-order inverse of ``forward``: exact to O(theta^2, epsilon^2)."""
    D, H = np.asarray(D, float), np.asarray(H, float)
    eps, th = np.asarray(v.epsilon, float), np.asarray(v.theta, float)
    a = th @ H - eps @ D
    b = th @ D + eps @ H
    dh = D @ H
    half = 0.5 * (H @ H - D @ D)
    E = D + a * D - b * H - dh * th + half * eps
    B = H + a * H + b * D + dh * eps + half * th
    return FieldState(E, B)


def h_from_f(f, k):
    """Quaternionic forward map; ``f[..., 3]`` and ``k[..., 3]`` broadcast."""
    # scalar on the left: numpy's FMA multiply rounds s * v and v * s
    # differently, and one row alone forms s * v
    s_fk = cdot(f, k).conjugate()
    s_ff = cdot(f, f).conjugate()
    return f - s_fk[..., None] * f - _cmul(0.5, s_ff)[..., None] * k


def f_from_h(h, k):
    """Quaternionic first-order inverse map; batch-first like ``h_from_f``."""
    s_hk = cdot(h, k).conjugate()
    s_hh = cdot(h, h).conjugate()
    return h + s_hk[..., None] * h + _cmul(0.5, s_hh)[..., None] * k


def covariant_transport_check(E, B, v, L):
    """Residual of the forward map when fields AND medium co-transform.

    Zero (to rounding) for every Lorentz element: the quaternionic form is
    built from invariant dot products.  ``E``, ``B`` and ``L`` may be
    batches; one residual per row.
    """
    from .noncomm import k_from_vectors

    k = k_from_vectors(v)
    f = f_vector(E, B)
    h = h_from_f(f, k)
    fp = lorentz.act_vector(L, f)
    kp = lorentz.act_vector(L, k)
    hp = lorentz.act_vector(L, h)
    return np.max(np.abs(h_from_f(fp, kp) - hp), axis=-1)
