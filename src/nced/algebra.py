"""Biquaternion (complex quaternion) arithmetic.

A biquaternion is stored as a complex128 array ``[s, x, y, z]``: scalar part
``s`` and vector part ``(x, y, z)``.  The basis satisfies
``e_a e_b = -delta_ab e0 + eps_abc e_c`` with ``eps_123 = +1``, and all dot /
cross products are complex-bilinear (no conjugation).

Every kernel is batch-first: components live on the last axis and any
leading axes broadcast, so ``mul`` of a ``(n, 4)`` batch and a ``(4,)``
element is ``n`` products in one call.  A batch gives the same bits as the
same rows taken one at a time (see ``_cmul``).
"""

import numpy as np


def quat(s=0.0, v=None):
    """Build a biquaternion (or a batch) from a scalar and an optional 3-vector."""
    s = np.asarray(s, np.complex128)
    shape = s.shape if v is None else np.broadcast_shapes(s.shape, np.shape(v)[:-1])
    q = np.zeros(shape + (4,), np.complex128)
    q[..., 0] = s
    if v is not None:
        q[..., 1:] = v
    return q


def from_vector(v):
    """Embed a complex 3-vector as a pure-vector biquaternion."""
    return quat(0.0, np.asarray(v, np.complex128))


def scalar_part(q):
    return q[0]


def vector_part(q):
    return np.asarray(q[1:4], np.complex128)


ONE = quat(1.0)
E1 = quat(0.0, (1.0, 0.0, 0.0))
E2 = quat(0.0, (0.0, 1.0, 0.0))
E3 = quat(0.0, (0.0, 0.0, 1.0))


def _cmul(a, b):
    """Complex product, the same bits for a batch as for its rows one by one.

    One row's components are numpy scalars, whose product is formed as
    ``ar*br - ai*bi`` with two roundings.  numpy's complex *array* multiply
    may fuse that into one FMA and round differently, so array operands are
    multiplied out in real arithmetic instead.
    """
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a * b
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    out = np.empty(np.shape(re), np.complex128)
    out.real = re
    out.imag = im
    return out


def _components(q):
    """The components along the last axis: numpy scalars for one element,
    arrays over the leading axes for a batch."""
    q = np.asarray(q, np.complex128)
    return tuple(q.transpose(-1, *range(q.ndim - 1)))


def _stack(*components):
    """Inverse of ``_components``."""
    out = np.empty(np.shape(components[0]) + (len(components),), np.complex128)
    for i, c in enumerate(components):
        out[..., i] = c
    return out


def cdot(a, b):
    """Complex-bilinear dot product of 3-vectors."""
    a0, a1, a2 = _components(a)
    b0, b1, b2 = _components(b)
    return _cmul(a0, b0) + _cmul(a1, b1) + _cmul(a2, b2)


def ccross(a, b):
    """Complex-bilinear cross product of 3-vectors."""
    a0, a1, a2 = _components(a)
    b0, b1, b2 = _components(b)
    return _stack(
        _cmul(a1, b2) - _cmul(a2, b1),
        _cmul(a2, b0) - _cmul(a0, b2),
        _cmul(a0, b1) - _cmul(a1, b0),
    )


def mul(q, p):
    """Biquaternion product: (q0 p0 - q.p) e0 + (q0 p + p0 q + q x p)."""
    q0, q1, q2, q3 = _components(q)
    p0, p1, p2, p3 = _components(p)
    return _stack(
        _cmul(q0, p0) - (_cmul(q1, p1) + _cmul(q2, p2) + _cmul(q3, p3)),
        _cmul(q0, p1) + _cmul(p0, q1) + (_cmul(q2, p3) - _cmul(q3, p2)),
        _cmul(q0, p2) + _cmul(p0, q2) + (_cmul(q3, p1) - _cmul(q1, p3)),
        _cmul(q0, p3) + _cmul(p0, q3) + (_cmul(q1, p2) - _cmul(q2, p1)),
    )


def conj_quat(q):
    """Quaternion conjugation: scalar kept, vector negated.  (qp)bar = pbar qbar."""
    q = np.asarray(q, np.complex128)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def conj_complex(q):
    """Complex conjugation: every component conjugated and the vector negated."""
    return conj_quat(conj_components(q))


def conj_components(q):
    """Componentwise complex conjugation without vector negation.

    Equals conj_quat(conj_complex(q)); a ring automorphism, unlike the two
    conjugations above.
    """
    return np.conj(np.asarray(q, np.complex128))


def norm(q):
    """Bilinear square q qbar = q0^2 + q.q (a complex number, not a length)."""
    q0, q1, q2, q3 = _components(q)
    return _cmul(q0, q0) + _cmul(q1, q1) + _cmul(q2, q2) + _cmul(q3, q3)


def sym_scalar(a, b):
    """Scalar part of the product of two pure-vector biquaternions: -(a.b)."""
    return -cdot(a, b)
