"""Unit biquaternions as (double-cover) proper Lorentz transformations.

Elements are length-4 complex arrays with ``norm(L) = 1``.  Real elements are
spatial rotations; elements with real scalar and imaginary vector part are
boosts.  The native group parameter is a half-angle: ``rotation(n, chi)``
rotates by ``2*chi`` and ``boost(n, beta)`` has rapidity ``2*beta``.  Elements
are unit by construction; none is renormalized, and the report rows check them.

Convention notes (fixed here once, used consistently everywhere):

* complex 3-vectors transform through ``act_vector``, the sandwich by the
  componentwise conjugate of ``L``.  This makes ``L -> action`` a group
  homomorphism and puts the stabilizer axis of a noncommutativity vector at
  ``theta + i*epsilon``.
* four-vectors are encoded as ``A = -i a0 + a_vec`` and transported by the
  matching law below; real four-vectors stay real and the induced 4x4 matrix
  is proper orthochronous.
* the orientation of positive angles is whatever the matrix entries of
  ``so3c_entries`` produce; no independent handedness convention is imposed.
"""

import numpy as np

from . import algebra as alg
from .errors import DegenerateError

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def identity():
    return alg.quat(1.0)


def abs2(q):
    """Sum of squared component magnitudes (Hermitian size) along the last axis."""
    return np.sum(alg.cabs(q) ** 2, axis=-1)


def rotation(axis, chi):
    """Spatial rotation about a real unit axis by angle 2*chi."""
    n = np.asarray(axis, float) / np.sqrt(alg.cdot(axis, axis).real)
    return alg.quat(np.cos(chi), np.sin(chi) * n)


def boost(axis, beta):
    """Boost along a real unit axis with rapidity 2*beta."""
    n = np.asarray(axis, float) / np.sqrt(alg.cdot(axis, axis).real)
    return alg.quat(np.cosh(beta), 1j * np.sinh(beta) * n)


def inverse(L):
    return alg.conj_quat(L)


def act_vector(L, v):
    """Transform a complex 3-vector; the SO(3,C) action of the element.

    Unit ``L[..., 4]`` and ``v[..., 3]`` broadcast.  For ``n = (a, u)`` and a
    pure vector ``v`` the scalar part of the sandwich ``n v conj_quat(n)`` is
    ``-a u.v + a v.u + (u x v).u = 0`` for every element, unit or not, so it
    is dropped unchecked: no bound on it could reject a corrupted element.
    """
    v = np.asarray(v, np.complex128)
    n = alg.conj_components(L)
    r = alg.mul(alg.mul(n, alg.from_vector(v)), alg.conj_quat(n))
    return r[..., 1:4]


def so3c_entries(q):
    """Complex orthogonal 3x3 matrix of the two-to-one map from one unit
    biquaternion q = (k0, k1, k2, k3), unchecked; it fixes q's own vector
    part.  An object array of symbols gives the symbolic matrix."""
    k0, k1, k2, k3 = q[0], q[1], q[2], q[3]
    o = np.empty((3, 3), np.result_type(q, np.complex128))
    o[0, 0] = 1.0 - 2.0 * (k2 * k2 + k3 * k3)
    o[0, 1] = -2.0 * k0 * k3 + 2.0 * k1 * k2
    o[0, 2] = 2.0 * k0 * k2 + 2.0 * k1 * k3
    o[1, 0] = 2.0 * k0 * k3 + 2.0 * k1 * k2
    o[1, 1] = 1.0 - 2.0 * (k3 * k3 + k1 * k1)
    o[1, 2] = -2.0 * k0 * k1 + 2.0 * k2 * k3
    o[2, 0] = -2.0 * k0 * k2 + 2.0 * k1 * k3
    o[2, 1] = 2.0 * k0 * k1 + 2.0 * k2 * k3
    o[2, 2] = 1.0 - 2.0 * (k1 * k1 + k2 * k2)
    return o


def so3c_matrix(L):
    """Matrix of ``act_vector(L, .)``: the entry map evaluated on the
    componentwise conjugate of L."""
    return so3c_entries(alg.conj_components(L))


def act_four_vector(L, a0, a):
    """Transform a real four-vector (a0, a); returns real (a0', a').

    ``conj_complex`` reverses products and sends ``A = -i a0 + a`` to ``-A``,
    so the transported encoding is again ``-i b0 + b`` with real ``b0`` and
    ``b`` for every element, unit or not; the imaginary rounding residue is
    dropped unchecked.
    """
    A = alg.quat(-1j * a0, np.asarray(a, np.complex128))
    r = alg.mul(alg.mul(alg.conj_components(L), A), alg.conj_quat(L))
    return float((1j * r[0]).real), r[1:4].real.copy()


def lorentz_matrix4(L):
    """4x4 matrix of the four-vector action, columns = transformed basis."""
    m = np.empty((4, 4))
    for mu in range(4):
        a0 = 1.0 if mu == 0 else 0.0
        a = np.zeros(3)
        if mu > 0:
            a[mu - 1] = 1.0
        b0, b = act_four_vector(L, a0, a)
        m[0, mu] = b0
        m[1:, mu] = b
    return m


def factorize(L):
    """Polar split L = rotation * boost.

    The boost squared is ``q = conj_complex(L) * L``, whose scalar part is
    ``abs2(L)`` and whose norm is ``|norm(L)|^2 = 1``; so ``b = q + 1`` has
    ``norm(b) = 2 b0``, b0 = 1 + abs2(L) its real scalar part, and the boost
    ``b / sqrt(2 b0)`` has a real scalar and an imaginary vector part by
    construction.  (``norm(b)`` itself cancels to 0 at large ``abs2(L)``.)
    The one check kept is that the remaining factor is a real rotation, which
    rejects non-unit elements.
    """
    q = alg.mul(alg.conj_complex(L), L)
    b = q + alg.ONE
    bst = b / np.sqrt(2.0 * b[0].real)
    rot = alg.mul(L, alg.conj_quat(bst))
    if np.max(np.abs(rot.imag)) > 1e-10 * max(1.0, abs2(L)):
        raise DegenerateError("rotation factor came out complex")
    rot = rot.real.astype(np.complex128)
    bst_clean = alg.quat(bst[0].real, 1j * bst[1:].imag)
    return rot, bst_clean


def element_from_rotation_matrix(r):
    """Real unit biquaternion whose action matrix equals ``r`` (Shepperd's
    method); ``r`` must be real orthogonal of determinant 1, and is unchecked."""
    r = np.asarray(r, float)
    t = np.trace(r)
    if t > 0:
        w = 0.5 * np.sqrt(1.0 + t)
        x = (r[2, 1] - r[1, 2]) / (4.0 * w)
        y = (r[0, 2] - r[2, 0]) / (4.0 * w)
        z = (r[1, 0] - r[0, 1]) / (4.0 * w)
    else:
        i = int(np.argmax(np.diag(r)))
        if i == 0:
            s = 2.0 * np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
            w = (r[2, 1] - r[1, 2]) / s
            x = 0.25 * s
            y = (r[0, 1] + r[1, 0]) / s
            z = (r[0, 2] + r[2, 0]) / s
        elif i == 1:
            s = 2.0 * np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2])
            w = (r[0, 2] - r[2, 0]) / s
            x = (r[0, 1] + r[1, 0]) / s
            y = 0.25 * s
            z = (r[1, 2] + r[2, 1]) / s
        else:
            s = 2.0 * np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2])
            w = (r[1, 0] - r[0, 1]) / s
            x = (r[0, 2] + r[2, 0]) / s
            y = (r[1, 2] + r[2, 1]) / s
            z = 0.25 * s
    return alg.quat(w, (x, y, z))
