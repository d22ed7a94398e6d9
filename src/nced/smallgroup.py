"""Residual (stability) Lorentz subgroup of a noncommutativity vector.

The paper's two families, ``cos(chi) + sin(chi) * phi_hat`` for a
nonisotropic K and ``1 + w * phi`` for an isotropic one (``K.K = 0``), are
both ``exp(w * phi)`` with ``phi = conj(K) = theta + i*epsilon``: a pure
vector v squares to ``-(v.v)``, so ``exp(v) = cos(x) + sin(x)/x * v`` with
``x^2 = v.v``.  cos and sin(x)/x are even in x, so the element depends only
on ``phi.phi``; it needs no kind, no branch of a root and no unit axis, and
it is unit for every K.  ``phi`` is conj(K) over a power of two, exactly, so
that it is of size one; the real and imaginary parts of the one complex
parameter ``w`` generate a rotation and a boost about the same (generally
complex) axis.

One ``canonical_form`` serves any non-null K, of either kind.
"""

from typing import NamedTuple

import numpy as np

from . import lorentz
from . import noncomm
from .algebra import _cmul, cabs, ccross, cdot, mul, quat
from .constitutive import f_vector, h_from_f
from .errors import ZeroKError


class SmallGroupDescriptor(NamedTuple):
    kind: str
    phi: np.ndarray     # conj(K) / 2^e, with 2^e the power of two just above max|K_i|
    square: complex     # phi.phi


def describe(k):
    """Classify K and package what ``element`` needs: the stabilizer
    direction ``phi`` = conj(K) / 2^e, where e is the ``frexp`` exponent of
    max|K_i|, and its bilinear square. The scaling is exact, so 2^j K has
    the bits of K's descriptor."""
    k = np.asarray(k, np.complex128)
    kind = noncomm.classify(k)
    if kind == noncomm.ZERO:
        raise ZeroKError("zero noncommutativity: the stabilizer is the full Lorentz group")
    e = np.frexp(np.max(cabs(k)))[1]
    phi = np.ldexp(noncomm.phi_from_k(k).view(float), -e).view(np.complex128)
    return SmallGroupDescriptor(kind, phi, complex(cdot(phi, phi)))


def element(d, chi):
    """The stabilizer element exp(chi * phi), or a batch ``[..., 4]`` for an
    array of parameters: ``cos(x) + chi * sinc(x) * phi`` with
    ``x = chi * sqrt(phi.phi)`` and ``sinc(0) = 1``. The report labels the
    parameter ``w``."""
    chi = np.asarray(chi, np.complex128)
    x = _cmul(chi, np.sqrt(np.complex128(d.square)))
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    return quat(np.cos(x), _cmul(_cmul(chi, sinc)[..., None], d.phi))


def stabilizes(L, k):
    """Max-component residual of the transported K against K itself, per row
    of ``L[..., 4]``."""
    k = np.asarray(k, np.complex128)
    return np.max(cabs(lorentz.act_vector(L, k) - k), axis=-1)


def group_law_check(d, product, p):
    """Defect of the additive parameter law, per row: how far ``product`` =
    L(p1)·L(p2) lies from L(p) with p = p1 + p2."""
    return np.max(cabs(product - element(d, p)), axis=-1)


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
    return np.max(cabs(h_from_f(fp, k) - hp), axis=-1)


def _orthonormal_rows(r1, r2):
    """Rows r1/|r1|, the unit part of r2 orthogonal to it, and their cross
    product; None when that orthogonal part is shorter than 1e-12."""
    r1 = r1 / np.sqrt(cdot(r1, r1).real)
    r2 = r2 - cdot(r2, r1).real * r1
    n2 = np.sqrt(cdot(r2, r2).real)
    if n2 < 1e-12:
        return None
    r2 = r2 / n2
    return np.vstack([r1, r2, ccross(r1, r2).real])


def canonical_form(k):
    """Lorentz element carrying a non-null K to its canonical frame; returns
    (L, transported K).

    A nonisotropic K lands on sqrt(K.K) times the x axis, an isotropic one on
    the reference null vector (1, i, 0). L is a unit z-boost times a unit
    rotation, so its norm defect is rounding of that product alone and it is
    not renormalized.
    """
    k = np.asarray(k, np.complex128)
    phi = noncomm.phi_from_k(k)
    if describe(k).kind == noncomm.NONISOTROPIC:
        phi_hat = phi / np.sqrt(cdot(phi, phi))
        n, m = phi_hat.real, phi_hat.imag
        rot, b = _orthonormal_rows(n, m), np.sqrt(cdot(m, m).real)
        if rot is None:   # Im phi_hat too short to orient a frame: the axis is real
            rot, b = _orthonormal_rows(n, np.eye(3)[np.argmin(np.abs(n))]), 0.0
        # null the imaginary part: after rotating (n -> a x, m -> b y), a boost along z
        # with sinh(2 beta) = -b, cosh(2 beta) = a = sqrt(1 + b^2) lands the axis on x
        ch = np.sqrt(0.5 * (np.sqrt(1.0 + b * b) + 1.0))
        sh = -0.5 * b / ch
    else:
        p, q = phi.real, phi.imag
        rot = _orthonormal_rows(p, -q)
        # a z-boost scales the null transverse vector (1, i, 0) by exp(-2 beta)
        e = np.sqrt(np.sqrt(cdot(p, p).real))
        ch, sh = 0.5 * (e + 1.0 / e), 0.5 * (e - 1.0 / e)
    # square roots, not numpy's cosh, sinh, arctanh or log: their AVX-512 loops round differently
    L = mul(quat(ch, (0.0, 0.0, 1j * sh)), lorentz.element_from_rotation_matrix(rot))
    return L, lorentz.act_vector(L, k)
