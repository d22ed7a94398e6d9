"""Shared random constructors and helpers for the test suite."""

import os
from pathlib import Path

import numpy as np

from nced import smallgroup as sg
from nced.algebra import mul, norm

# the subprocess tests run ``python -m nced`` from this checkout, installed or not
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def rand_unit_element(rng, scale=1.0):
    """Random unit biquaternion, rejecting near-isotropic draws that would
    blow up under normalization."""
    while True:
        q = scale * (rng.normal(size=4) + 1j * rng.normal(size=4))
        n = norm(q)
        if abs(n) > 0.2 * scale * scale:
            return q / np.sqrt(n)


def rand_rotation(rng):
    """Random real unit quaternion (a spatial rotation)."""
    q = rng.normal(size=4)
    return (q / np.linalg.norm(q)).astype(np.complex128)


def rand_nonisotropic_k(rng, min_iso=0.1):
    """Random complex 3-vector bounded away from the isotropic cone."""
    while True:
        k = rng.normal(size=3) + 1j * rng.normal(size=3)
        if abs(k @ k) > min_iso * np.sum(np.abs(k) ** 2):
            return k


def rand_isotropic_k(rng, scale_range=(0.5, 2.0)):
    """Random complex 3-vector with exactly vanishing bilinear square, built
    from an orthogonal equal-length real pair."""
    p = rng.normal(size=3)
    p /= np.linalg.norm(p)
    q = rng.normal(size=3)
    q -= (q @ p) * p
    q /= np.linalg.norm(q)
    s = rng.uniform(*scale_range)
    return s * (p + 1j * q)


def group_law(d, p1, p2):
    """``sg.group_law_check`` of L(p1)·L(p2), each factor built by ``element``."""
    p1, p2 = np.asarray(p1, np.complex128), np.asarray(p2, np.complex128)
    e1, e2 = (sg.element(d, **{d.param: p}) for p in (p1, p2))
    return sg.group_law_check(d, mul(e1, e2), p1 + p2)
