"""The analyzer's pass bounds, one row per entry of a report's ``checks``
block, and the two residuals that the analyzer and the acceptance criteria
both form.

Every pass bound of a report row is written here. ``scale`` is
max(1, max|K_i|): the rounding error of a residual formed from K grows with
K, and a K smaller than one is held to the bounds of a K of size one.

Two thresholds are not row bounds and live beside the code they guard:
``noncomm.CLASSIFY_TOL`` (the classification) and the relative 1e-12
antisymmetry bound of ``noncomm.vectors_from_tensor`` (the input).
"""

import numpy as np

from . import lorentz
from .algebra import cabs
from . import noncomm as nc
from . import smallgroup as sg


def nonmember_residual(k):
    """Largest stabilizer residual of the rotations by 1 about the three lab
    axes; no K is fixed by all three, and the residual is of degree 1 in K."""
    return float(np.max(sg.stabilizes(lorentz.exp(0.5, np.eye(3)), k)))


def offgrid_min(chis, residuals):
    """Smallest scan residual at least pi/36 away from every quarter turn
    (0.0 when the grid has no such angle)."""
    dist = np.abs((chis + np.pi / 4) % (np.pi / 2) - np.pi / 4)
    far = dist >= np.pi / 36
    return float(residuals[far].min()) if far.any() else 0.0


def verdicts(report, k):
    """The ``checks`` block of ``report``, in report order, from the values
    the report holds; ``k`` is its complex noncommutativity vector. A NaN
    value, or a NaN peak in a duality bound, fails its row."""
    dual = report["duality"]
    # np.max and np.maximum propagate NaN, where max skips it
    zeros = np.max(dual["quarter_turn_residuals"])
    peak = dual["peak_residual"]
    if peak == 0.0:
        # the commutative limit: every dual rotation is a symmetry
        duality = {"duality_zeros": bool(zeros <= 1e-13), "duality_discrete": True}
    else:
        duality = {
            "duality_zeros": bool(zeros <= 1e-11 * np.maximum(1.0, peak)),
            "duality_discrete": dual["offgrid_min_residual"] >= 1e-6 * peak,
        }
    if report["classification"] == nc.ZERO:
        return duality

    k_max = float(np.max(cabs(k)))
    scale = max(1.0, k_max)
    small = report["small_group"]
    canonical = report["canonical_form"]
    return {
        "stabilizer": small["max_stabilizer_residual"] <= 1e-11 * scale,
        "group_law": small["group_law_defect"] <= 1e-11 * scale,
        "abelian": small["abelian_defect"] <= 1e-11 * scale,
        "invariance": small["max_invariance_residual"] <= 1e-11 * scale ** 2,
        # unfloored: the residual shrinks with K, whatever its size
        "distinguishes_nonmembers":
            small["nonmember_rotation_residual"] >= 1e-4 * min(k_max, 1e4),
        "full_covariance": report["covariant_transport_residual"] <= 1e-11 * scale ** 2,
        "canonical_form": (canonical["reduction_residual"] <= 1e-10 * scale
                           and canonical["k_square_drift"] <= 1e-11 * scale ** 2),
        "factorization":
            report["factorization"]["recomposition_defect"] <= 1e-11 * scale,
        **duality,
    }
