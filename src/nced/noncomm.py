"""Representations of the noncommutativity object.

The antisymmetric 4x4 matrix splits into an electric-like vector
``epsilon[m] = T[m, 0]`` and a magnetic-like vector
``theta[k] = -1/2 eps_klm T[l, m]`` (metric +--- with spatial lowering a
no-op, eps_123 = +1).  The pair combines into the complex 3-vector
``K = theta - i*epsilon`` that carries the object under the complex
orthogonal group; its bilinear square is the Lorentz invariant that decides
the shape of the residual symmetry group.
"""

from typing import NamedTuple

import numpy as np

from .algebra import cabs, cdot
from .errors import NotAntisymmetricError

NONISOTROPIC = "nonisotropic"
ISOTROPIC = "isotropic"
ZERO = "zero"

# the classification boundary of a noncommutativity vector, absolute for
# |K| and relative for |K.K|
CLASSIFY_TOL = 1e-9


class ThetaVectors(NamedTuple):
    epsilon: np.ndarray
    theta: np.ndarray


class KInvariants(NamedTuple):
    square: complex          # K.K (bilinear)
    re_part: float           # theta^2 - epsilon^2
    im_part: float           # -2 theta.epsilon


def vectors_from_tensor(t):
    """Extract (epsilon, theta) from an antisymmetric matrix."""
    t = np.asarray(t, float)
    if t.shape != (4, 4):
        raise NotAntisymmetricError(f"expected a 4x4 matrix, got shape {t.shape}")
    if np.max(np.abs(t + t.T)) > 1e-12 * np.max(np.abs(t)):
        raise NotAntisymmetricError("matrix is not antisymmetric")
    epsilon = np.array([t[1, 0], t[2, 0], t[3, 0]])
    theta = np.array([-t[2, 3], -t[3, 1], -t[1, 2]])
    return ThetaVectors(epsilon, theta)


def tensor_from_vectors(v):
    """Inverse of vectors_from_tensor; exact round trip."""
    eps, th = np.asarray(v.epsilon, float), np.asarray(v.theta, float)
    t = np.zeros((4, 4))
    t[1:, 0] = eps
    t[0, 1:] = -eps
    t[2, 3], t[3, 2] = -th[0], th[0]
    t[3, 1], t[1, 3] = -th[1], th[1]
    t[1, 2], t[2, 1] = -th[2], th[2]
    return t


def k_from_vectors(v):
    """K = theta - i*epsilon."""
    return np.asarray(v.theta, float) - 1j * np.asarray(v.epsilon, float)


def phi_from_k(k):
    """The conjugate view theta + i*epsilon that parametrizes the stabilizer."""
    return np.conj(np.asarray(k, np.complex128))


def invariants(k):
    k = np.asarray(k, np.complex128)
    th, eps = k.real, -k.imag
    return KInvariants(complex(cdot(k, k)), float(cdot(th, th).real - cdot(eps, eps).real),
                       float(-2.0 * cdot(th, eps).real))


def classify(k):
    """Zero (|K| <= CLASSIFY_TOL), isotropic (|K.K| <= CLASSIFY_TOL * |K|^2)
    or nonisotropic."""
    k = np.asarray(k, np.complex128)
    mag2 = float(np.sum(cabs(k) ** 2))
    if np.sqrt(mag2) <= CLASSIFY_TOL:
        return ZERO
    if abs(cdot(k, k)) <= CLASSIFY_TOL * mag2:
        return ISOTROPIC
    return NONISOTROPIC
