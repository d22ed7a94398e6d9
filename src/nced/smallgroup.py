"""Residual (stability) Lorentz subgroup of a noncommutativity vector.

The paper's two families, ``cos(chi) + sin(chi) * phi_hat`` for a
nonisotropic K and ``1 + w * phi`` for an isotropic one (``K.K = 0``), are
both ``lorentz.exp(w, phi)`` with ``phi = conj(K) = theta + i*epsilon``, so
the element needs no kind and is unit for every K.  ``phi`` is conj(K) over
a power of two, exactly, so that it is of size one; the real and imaginary
parts of the one complex parameter ``w`` generate a rotation and a boost
about the same (generally complex) axis.

One ``canonical_form`` serves any non-null K, of either kind: it is a
half-turn, times a z-boost for an isotropic K.
"""

from typing import NamedTuple

import numpy as np

from . import lorentz
from . import noncomm
from .algebra import E2, cabs, cdot, mul, quat
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
    array of parameters; the report labels the parameter ``w``."""
    return lorentz.exp(chi, d.phi)


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


def canonical_form(k):
    """Lorentz element carrying a non-null K to its canonical frame; returns
    (L, transported K).

    The target t is sqrt(K.K) (principal root) times the x axis for a
    nonisotropic K, and 2^e (1, i, 0), at K's power of two, for an isotropic
    one, which a z-boost then takes to (1, i, 0). As t.t = K.K, the half-turn
    about c = K + t, the pure unit vector c / sqrt(c.c), carries K to t; where
    |c.c| is larger, the one about K + t', t' = diag(-1, 1, -1) t, does so
    followed by the half-turn about y. Then |c.c| >= 2|K.K|, or |K|^2 / 2 for
    a null K: the axis is never degenerate. L is not renormalized.
    """
    k = np.asarray(k, np.complex128)
    isotropic = describe(k).kind == noncomm.ISOTROPIC
    if isotropic:
        t = np.ldexp(1.0, np.frexp(np.max(cabs(k)))[1]) * np.array([1.0, 1.0j, 0.0])
    else:
        t = np.array([np.sqrt(cdot(k, k)), 0.0, 0.0])
    c, c_flip = k + t, k + np.array([-1.0, 1.0, -1.0]) * t
    flip = cabs(cdot(c_flip, c_flip)) > cabs(cdot(c, c))
    c = c_flip if flip else c
    # act_vector sandwiches by the componentwise conjugate
    L = quat(0.0, np.conj(c / np.sqrt(cdot(c, c))))
    L = mul(E2, L) if flip else L
    if isotropic:
        # scales (1, i, 0) by 1/r^2 = 2^-e; square roots, not numpy's cosh or
        # sinh, whose AVX-512 loops round differently
        r = np.sqrt(t[0].real)
        L = mul(quat(0.5 * (r + 1.0 / r), (0.0, 0.0, 0.5j * (r - 1.0 / r))), L)
    return L, lorentz.act_vector(L, k)
