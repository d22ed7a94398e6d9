"""Biquaternion (complex quaternion) arithmetic.

A biquaternion is stored as a complex128 array ``[s, x, y, z]``: scalar part
``s`` and vector part ``(x, y, z)``.  The basis satisfies
``e_a e_b = -delta_ab e0 + eps_abc e_c`` with ``eps_123 = +1``, and all dot /
cross products are complex-bilinear (no conjugation).

Every kernel is batch-first: components live on the last axis and any
leading axes broadcast, so ``mul`` of a ``(n, 4)`` batch and a ``(4,)``
element is ``n`` products in one call.  One rounding rule serves every
module: each complex product is ``_cmul``'s, each dot or length ``cdot``'s and
each modulus ``cabs``'s, and ``mul`` is built from ``cdot`` and ``ccross``.  So
a batch gives the bits of its rows taken one at a time (a NaN's sign bit aside:
numpy's loops set it differently), and a report the same bits on every x86_64
CPU.
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


E1 = quat(0.0, (1.0, 0.0, 0.0))
E2 = quat(0.0, (0.0, 1.0, 0.0))
E3 = quat(0.0, (0.0, 0.0, 1.0))


def _cmul(a, b):
    """Complex product ``(ar*br - ai*bi) + i (ar*bi + ai*br)`` in real
    arithmetic, one rounding per operation: numpy's complex multiply uses FMA
    where the CPU has it.  Operands are arrays or scalars, real or complex; a
    0-d product comes back as a numpy scalar."""
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    out = np.empty(np.shape(re), np.complex128)
    out.real = re
    out.imag = im
    return out[()]


def cabs(z):
    """Componentwise modulus by ``hypot``: numpy's complex ``abs`` rounds differently on AVX2."""
    return np.hypot(z.real, z.imag)


def cdot(a, b):
    """Complex-bilinear dot product ``(a0 b0 + a1 b1) + a2 b2`` of 3-vectors."""
    p = _cmul(np.asarray(a, np.complex128), np.asarray(b, np.complex128))
    return (p[..., 0] + p[..., 1]) + p[..., 2]


def ccross(a, b):
    """Complex-bilinear cross product of 3-vectors: component i is
    ``a[i+1] b[i+2] - a[i+2] b[i+1]``, indices mod 3."""
    a, b = np.asarray(a, np.complex128), np.asarray(b, np.complex128)
    i1, i2 = [1, 2, 0], [2, 0, 1]
    return _cmul(a[..., i1], b[..., i2]) - _cmul(a[..., i2], b[..., i1])


def mul(q, p):
    """Biquaternion product: (q0 p0 - q.p) e0 + (q0 p + p0 q + q x p)."""
    q, p = np.asarray(q, np.complex128), np.asarray(p, np.complex128)
    q0, qv, p0, pv = q[..., 0], q[..., 1:], p[..., 0], p[..., 1:]
    return quat(_cmul(q0, p0) - cdot(qv, pv),
                _cmul(q0[..., None], pv) + _cmul(p0[..., None], qv) + ccross(qv, pv))


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
    q0, q1, q2, q3 = np.moveaxis(np.asarray(q, np.complex128), -1, 0)
    return _cmul(q0, q0) + _cmul(q1, q1) + _cmul(q2, q2) + _cmul(q3, q3)
