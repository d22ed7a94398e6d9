"""Unit biquaternions as (double-cover) proper Lorentz transformations.

Elements are length-4 complex arrays with ``norm(L) = 1``.  Real elements are
spatial rotations; elements with real scalar and imaginary vector part are
boosts.  Every one-parameter family is ``exp(w, axis)``, and its parameter is
a half-angle: on a unit real axis ``exp(chi, n)`` rotates by ``2*chi`` and
``exp(1j*beta, n)`` has rapidity ``2*beta``.  Elements are unit by
construction; none is renormalized, and the report rows check them.

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

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def identity():
    return alg.quat(1.0)


def abs2(q):
    """Sum of squared component magnitudes (Hermitian size) along the last axis."""
    return np.sum(alg.cabs(q) ** 2, axis=-1)


def exp(w, axis):
    """The element exp(w * axis) of a complex parameter ``w`` and a complex
    3-vector ``axis``, or a batch ``[..., 4]``: ``w[...]`` and
    ``axis[..., 3]`` broadcast.

    A pure vector v squares to ``-(v.v)``, so ``exp(v) = cos(x) + sin(x)/x * v``
    with ``x^2 = v.v``; here ``cos(x) + w * sinc(x) * axis`` with
    ``x = w * sqrt(axis.axis)`` and ``sinc(0) = 1``.  cos and sinc are even
    in x, so the branch of the root does not matter; the axis need not be
    unit, and the norm is 1 for every axis.  On a unit
    real axis a real ``w`` rotates by ``2*w`` and ``w = i*beta`` boosts with
    rapidity ``2*beta``.  ``w`` and ``axis`` stay apart, because forming
    ``w * axis`` first would round before the root.
    """
    w = np.asarray(w, np.complex128)
    axis = np.asarray(axis, np.complex128)
    x = alg._cmul(w, np.sqrt(alg.cdot(axis, axis)))
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    return alg.quat(np.cos(x), alg._cmul(alg._cmul(w, sinc)[..., None], axis))


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
    """Transform real four-vectors (a0, a); returns real (a0', a').
    ``L[..., 4]``, ``a0[...]`` and ``a[..., 3]`` broadcast.

    ``conj_complex`` reverses products and sends ``A = -i a0 + a`` to ``-A``,
    so the transported encoding is again ``-i b0 + b`` with real ``b0`` and
    ``b`` for every element, unit or not; the imaginary rounding residue is
    dropped unchecked.
    """
    A = alg.quat(-1j * np.asarray(a0, float), a)
    r = alg.mul(alg.mul(alg.conj_components(L), A), alg.conj_quat(L))
    return (1j * r[..., 0]).real, r[..., 1:4].real


def lorentz_matrix4(L):
    """4x4 matrix of the four-vector action, columns = transformed basis."""
    b0, b = act_four_vector(L, np.eye(4)[0], np.eye(4)[:, 1:])
    return np.vstack([b0, b.T])


def factorize(L):
    """Polar split L = rotation * boost.

    The boost squared is ``q = conj_complex(L) * L``, whose scalar part is
    ``abs2(L)`` and whose norm is ``|norm(L)|^2 = 1``; so ``b = q + 1`` has
    ``norm(b) = 2 b0``, b0 = 1 + abs2(L) its real scalar part, and the boost
    ``b / sqrt(2 b0)`` has a real scalar and an imaginary vector part by
    construction.  (``norm(b)`` itself cancels to 0 at large ``abs2(L)``.)
    The rotation is the real part of ``L * conj_quat(boost)``.

    Neither factor is checked: the report's ``factorization`` row compares
    their product with ``L``.  On a non-unit ``L`` the dropped imaginary part
    of the rotation makes that defect large.
    """
    q = alg.mul(alg.conj_complex(L), L)
    b = q + identity()
    bst = b / np.sqrt(2.0 * b[0].real)
    rot = alg.mul(L, alg.conj_quat(bst)).real.astype(np.complex128)
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
        return alg.quat(w, (x, y, z))
    # the largest diagonal entry i, with (i, j, k) cyclic
    i = int(np.argmax(np.diag(r)))
    j, k = (i + 1) % 3, (i + 2) % 3
    d = -np.diag(r)
    d[i] = r[i, i]
    s = 2.0 * np.sqrt(1.0 + d[0] + d[1] + d[2])
    v = np.empty(3)
    v[[i, j, k]] = 0.25 * s, (r[i, j] + r[j, i]) / s, (r[k, i] + r[i, k]) / s
    return alg.quat((r[k, j] - r[j, k]) / s, v)
