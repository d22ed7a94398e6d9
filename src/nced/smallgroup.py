"""Residual (stability) Lorentz subgroup of a noncommutativity vector.

For a nonisotropic K the group is the two-parameter Abelian family
``L = cos(chi) + sin(chi) * phi_hat`` with ``phi_hat`` the unit vector of
``phi = conj(K) = theta + i*epsilon`` and complex angle ``chi``; its real and
imaginary parts generate a rotation and a boost about the same (generally
complex) axis.  For an isotropic K (``K.K = 0``) the group is
``L = +-(1 + w * phi)``, an additive copy of the complex plane.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lorentz
from . import noncomm
from .algebra import cdot, conj_components, mul, quat
from .constitutive import f_vector, h_from_f
from .errors import DegenerateError, KindMismatchError, ZeroKError


@dataclass(frozen=True)
class SmallGroupDescriptor:
    kind: str
    phi_hat: Optional[np.ndarray] = None     # nonisotropic: unit axis, phi_hat.phi_hat = 1
    phi: Optional[np.ndarray] = None          # isotropic: raw null direction
    sqrt_square: Optional[complex] = None     # nonisotropic: principal root of phi.phi


def describe(k):
    """Classify K and package the stabilizer parametrization data."""
    k = np.asarray(k, np.complex128)
    kind = noncomm.classify(k)
    if kind == noncomm.ZERO:
        raise ZeroKError("zero noncommutativity: the stabilizer is the full Lorentz group")
    phi = noncomm.phi_from_k(k)
    if kind == noncomm.ISOTROPIC:
        return SmallGroupDescriptor(kind=kind, phi=phi)
    ssq = complex(np.sqrt(cdot(phi, phi)))
    return SmallGroupDescriptor(kind=kind, phi_hat=phi / ssq, sqrt_square=ssq)


def element(d, chi=None, w=None, sign=1):
    """One stabilizer element, or a batch ``[..., 4]`` for array parameters.

    Nonisotropic descriptors take a complex angle ``chi`` and no sign, since
    ``-L(chi) = L(chi + pi)``; isotropic ones a complex displacement ``w`` and
    an overall ``sign`` of +-1.
    """
    if d.kind == noncomm.NONISOTROPIC:
        if chi is None or w is not None or np.any(np.asarray(sign) != 1):
            raise KindMismatchError("nonisotropic small group is parametrized by chi alone")
        chi = np.asarray(chi, np.complex128)
        return quat(np.cos(chi), np.sin(chi)[..., None] * d.phi_hat)
    if chi is not None or w is None:
        raise KindMismatchError("isotropic small group is parametrized by w (and sign)")
    sign = np.asarray(sign)
    if not np.all((sign == 1) | (sign == -1)):
        raise KindMismatchError("sign must be +1 or -1")
    w = np.asarray(w, np.complex128)
    return sign[..., None] * quat(1.0, w[..., None] * d.phi)


def stabilizes(L, k):
    """Max-component residual of the transported K against K itself, per row
    of ``L[..., 4]``."""
    k = np.asarray(k, np.complex128)
    return np.max(np.abs(lorentz.act_vector(L, k) - k), axis=-1)


def group_law_check(d, p1, p2):
    """Defect of the additive parameter law under actual composition, per
    pair of (arrays of) parameters."""
    if d.kind == noncomm.NONISOTROPIC:
        p1, p2 = np.asarray(p1, np.complex128), np.asarray(p2, np.complex128)
        e1 = element(d, chi=p1)
        e2 = element(d, chi=p2)
        target = element(d, chi=p1 + p2)
    else:
        w1, s1 = p1 if isinstance(p1, tuple) else (p1, 1)
        w2, s2 = p2 if isinstance(p2, tuple) else (p2, 1)
        w1, w2 = np.asarray(w1, np.complex128), np.asarray(w2, np.complex128)
        e1 = element(d, w=w1, sign=s1)
        e2 = element(d, w=w2, sign=s2)
        target = element(d, w=w1 + w2, sign=s1 * s2)
    return np.max(np.abs(mul(e1, e2) - target), axis=-1)


def verify_constitutive_invariance(k, L, E, B):
    """Residual of the constitutive map under L with the medium held fixed.

    Vanishes exactly when L stabilizes K; strictly positive for generic
    fields otherwise.  ``L``, ``E`` and ``B`` may be batches; one residual
    per row.
    """
    k = np.asarray(k, np.complex128)
    f = f_vector(E, B)
    h = h_from_f(f, k)
    fp = lorentz.act_vector(L, f)
    hp = lorentz.act_vector(L, h)
    return np.max(np.abs(h_from_f(fp, k) - hp), axis=-1)


def _orthonormal_rows(r1, r2):
    """Rows r1/|r1|, the unit part of r2 orthogonal to it, and their cross
    product; None when that orthogonal part is shorter than 1e-12."""
    r1 = r1 / np.linalg.norm(r1)
    r2 = r2 - (r2 @ r1) * r1
    n2 = np.linalg.norm(r2)
    if n2 < 1e-12:
        return None
    r2 = r2 / n2
    return np.vstack([r1, r2, np.cross(r1, r2)])


def _sandwich_to_element(n_box):
    """Lorentz element whose vector action is the sandwich by ``n_box``."""
    L = conj_components(n_box)
    return lorentz.make_element(L[0], L[1:])


def canonical_form(k):
    """Lorentz element carrying a nonisotropic K to the frame where its
    stabilizer axis is a real unit vector; returns (L, transported K)."""
    k = np.asarray(k, np.complex128)
    if noncomm.classify(k) != noncomm.NONISOTROPIC:
        raise KindMismatchError("canonical_form needs a nonisotropic K; "
                                "use canonical_form_isotropic for null K")
    d = describe(k)
    n, m = d.phi_hat.real, d.phi_hat.imag
    rot = _orthonormal_rows(n, m)
    if rot is None:   # Im phi_hat too short to orient a frame: the axis is real
        return lorentz.identity(), k.copy()
    a, b = np.linalg.norm(n), np.linalg.norm(m)
    n_rot = lorentz.element_from_rotation_matrix(rot)
    # null the imaginary part: after rotating (n -> a x, m -> b y), a boost
    # along z with th(2 beta) = -b/a lands the axis exactly on x
    beta = 0.5 * np.arctanh(-b / a)
    n_boost = lorentz.boost((0.0, 0.0, 1.0), beta)
    L = _sandwich_to_element(mul(n_boost, n_rot))
    return L, lorentz.act_vector(L, k)


def canonical_form_isotropic(k):
    """Variant for isotropic K: carries phi = conj(K) to the reference null
    vector (1, -i, 0); returns (L, transported K)."""
    k = np.asarray(k, np.complex128)
    if noncomm.classify(k) != noncomm.ISOTROPIC:
        raise KindMismatchError("canonical_form_isotropic needs an isotropic K")
    phi = noncomm.phi_from_k(k)
    p, q = phi.real, phi.imag
    if np.linalg.norm(q) < 1e-12 * np.linalg.norm(p):
        raise DegenerateError("null direction collapsed; K is too close to zero")
    rot = _orthonormal_rows(p, -q)
    if rot is None:
        raise DegenerateError("degenerate direction pair in canonical reduction")
    n_rot = lorentz.element_from_rotation_matrix(rot)
    # a z-boost scales the null transverse vector (1, -i, 0) by exp(-2 beta)
    beta = 0.5 * np.log(np.linalg.norm(p))
    n_boost = lorentz.boost((0.0, 0.0, 1.0), beta)
    L = _sandwich_to_element(mul(n_boost, n_rot))
    return L, lorentz.act_vector(L, k)
