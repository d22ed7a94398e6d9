"""Dual rotations of the self/anti-self-dual field combinations.

With ``G = f + h`` and ``R = f - h`` the constitutive system is the pair of
orientations

    D2 = h - [f - (f.K)* f - 1/2 (f.f)* K]    (forward relation)
    D1 = f - [h + (h.K)* h + 1/2 (h.h)* K]    (its first-order inverse)

(conjugated bilinear dots; the brackets are ``constitutive``'s two maps).
A state is consistent when either orientation vanishes exactly; the residual
reported here is the defect of the best-matching orientation.  Under the
dual rotation ``G -> e^{i chi} G``, ``R -> e^{-i chi} R``, ``K -> e^{i chi} K``
a quarter turn swaps the two orientations (up to a phase), a half turn
preserves each, and any other angle breaks both: the surviving dual symmetry
is exactly the four phases ``e^{i chi} in {1, -1, i, -i}``.  With K = 0
(and h = f) both orientations vanish for every chi.
"""

from typing import NamedTuple

import numpy as np

from .algebra import _cmul, cabs
from .constitutive import _correction

# rows evaluated at once, of the scan and of cli's small-group trials: a
# scan row holds about 500 B of temporaries, so a block bounds the scan's
# working memory at about 0.25 MiB, and a trial block's at about 0.5 MiB
SCAN_BLOCK = 512

# A generic field pair (E, B), the analyzer's duality state: no component is
# zero, E·B ≠ 0 and E² ≠ B², so neither f·f nor any component of f vanishes.
GENERIC_E = (0.3, -0.7, 0.5)
GENERIC_B = (-0.2, 0.9, 0.1)


class GRState(NamedTuple):
    G: np.ndarray
    R: np.ndarray


def state(f, k):
    """(G, R) of the fields ``f`` in the medium ``k``: R = f - h formed as the
    correction, without h's rounding at ulp(|f|), which hides |K|^2; G = 2f - R."""
    R = _correction(f, k)
    return GRState(2.0 * f - R, R)


def fh_from_gr(s):
    return _cmul(0.5, s.G + s.R), _cmul(0.5, s.G - s.R)


def dual_rotate(s, k, chi):
    """Phase-rotate (G, R, K) by real duality angles ``chi``: one row per
    angle of an array, the shapes of ``s`` and ``k`` for a single angle."""
    ph = np.exp(1j * np.asarray(chi, float))[..., None]
    k = np.asarray(k, np.complex128)
    return GRState(_cmul(ph, s.G), _cmul(ph.conj(), s.R)), _cmul(ph, k)


def constitutive_residual_gr(s, k):
    """Max-component defect of the constitutive pair in (G, R, K) variables,
    measured against its best-matching orientation; one per row, a float for
    a single state.  As f - h = R, the defects ``h - h_from_f(f, K)`` and
    ``f - f_from_h(h, K)`` are formed from terms of the size of K, whose
    rounding shrinks with K as the defects do."""
    G, R, k = (np.asarray(x, np.complex128) for x in (s.G, s.R, k))
    f, h = fh_from_gr(GRState(G, R))
    # max and minimum propagate NaN, so an overflowed component gives a NaN
    # residual, which fails its check
    d2 = np.max(cabs(_correction(f, k) - R), axis=-1)
    d1 = np.max(cabs(R - _correction(h, k)), axis=-1)
    return np.minimum(d1, d2)[()]


def duality_scan(s, k, n):
    """Residual after dual rotation on the uniform angle grid 2 pi j / n;
    returns the arrays ``(chis, residuals)``, evaluated ``SCAN_BLOCK``
    angles at a time. The residual at chi = 0 is the state's own defect,
    which the report's ``duality_zeros`` row bounds.
    """
    if n < 8:
        raise ValueError("scan resolution n must be at least 8")
    chis = 2.0 * np.pi * np.arange(n) / n
    residuals = np.empty(n)
    # every step is elementwise or a reduction within a row, so a block gives
    # the bits the whole grid would
    for a in range(0, n, SCAN_BLOCK):
        rotated, k_rot = dual_rotate(s, k, chis[a:a + SCAN_BLOCK])
        residuals[a:a + SCAN_BLOCK] = constitutive_residual_gr(rotated, k_rot)
    return chis, residuals
