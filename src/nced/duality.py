"""Dual rotations of the self/anti-self-dual field combinations.

With ``G = f + h`` and ``R = f - h`` the constitutive system is the pair of
orientations

    D2 = h - f + (f.K)* f + 1/2 (f.f)* K      (forward relation)
    D1 = f - h - (h.K)* h - 1/2 (h.h)* K      (its first-order inverse)

(conjugated bilinear dots).  A state is consistent when either orientation
vanishes exactly; the residual reported here is the defect of the
best-matching orientation.  Under the dual rotation ``G -> e^{i chi} G``,
``R -> e^{-i chi} R``, ``K -> e^{i chi} K`` a quarter turn swaps the two
orientations (up to a phase), a half turn preserves each, and any other
angle breaks both: the surviving dual symmetry is exactly the four phases
``e^{i chi} in {1, -1, i, -i}``.  With K = 0 (and h = f) both orientations
vanish for every chi.
"""

from typing import NamedTuple

import numpy as np

from .algebra import _cmul, cdot
from .errors import InconsistentInputError
from .tolerances import DEFAULT as TOL

# rows of the scan evaluated at once: each row holds about 500 B of
# temporaries, so a block bounds the scan's working memory at about 0.25 MiB
SCAN_BLOCK = 512


class GRState(NamedTuple):
    G: np.ndarray
    R: np.ndarray


def gr_from_fh(f, h):
    f = np.asarray(f, np.complex128)
    h = np.asarray(h, np.complex128)
    return GRState(f + h, f - h)


def fh_from_gr(s):
    return 0.5 * (s.G + s.R), 0.5 * (s.G - s.R)


def dual_rotate(s, k, chi):
    """Phase-rotate (G, R, K) by a real duality angle chi."""
    ph = np.exp(1j * float(chi))
    return GRState(ph * s.G, s.R / ph), ph * np.asarray(k, np.complex128)


def _gr_residual(G, R, K):
    """Best-orientation defect per row of ``G[..., 3]``, ``R[..., 3]``, ``K[..., 3]``."""
    f = _cmul(0.5, G + R)
    h = _cmul(0.5, G - R)
    s_fk = cdot(f, K).conjugate()[..., None]
    s_ff = _cmul(0.5, cdot(f, f).conjugate())[..., None]
    s_hk = cdot(h, K).conjugate()[..., None]
    s_hh = _cmul(0.5, cdot(h, h).conjugate())[..., None]
    fwd = h - f + _cmul(s_fk, f) + _cmul(s_ff, K)
    inv = f - h - _cmul(s_hk, h) - _cmul(s_hh, K)
    # hypot is abs() of a complex scalar bit for bit; fmax from 0.0 skips NaN
    # components the way a running "if m > d: d = m" does
    d2 = np.fmax.reduce(np.hypot(fwd.real, fwd.imag), axis=-1, initial=0.0)
    d1 = np.fmax.reduce(np.hypot(inv.real, inv.imag), axis=-1, initial=0.0)
    return np.where(d1 < d2, d1, d2)[()]


def constitutive_residual_gr(s, k):
    """Max-component defect of the constitutive pair in (G, R, K) variables,
    measured against its best-matching orientation."""
    G, R = np.asarray(s.G, np.complex128), np.asarray(s.R, np.complex128)
    return float(_gr_residual(G, R, np.asarray(k, np.complex128)))


def duality_scan(s, k, n):
    """Residual after dual rotation on the uniform angle grid 2 pi j / n;
    returns the arrays ``(chis, residuals)``, evaluated ``SCAN_BLOCK``
    angles at a time.

    The input state must satisfy the constitutive pair before rotation;
    otherwise InconsistentInputError is raised.
    """
    if n < 8:
        raise ValueError("scan resolution n must be at least 8")
    k = np.asarray(k, np.complex128)
    pre = constitutive_residual_gr(s, k)
    scale = max(1.0, float(np.max(np.abs(s.G))), float(np.max(np.abs(s.R)))) ** 2
    if pre > TOL.duality_consistency * scale:
        raise InconsistentInputError(
            f"state violates the constitutive pair before rotation (residual {pre:.3e})"
        )
    chis = 2.0 * np.pi * np.arange(n) / n
    G, R = np.asarray(s.G, np.complex128), np.asarray(s.R, np.complex128)
    residuals = np.empty(n)
    # every step is elementwise or a reduction within a row, so a block gives
    # the bits the whole grid would
    for a in range(0, n, SCAN_BLOCK):
        ph = np.exp(1j * chis[a:a + SCAN_BLOCK])[:, None]
        residuals[a:a + SCAN_BLOCK] = _gr_residual(ph * G, R / ph, ph * k)
    return chis, residuals
