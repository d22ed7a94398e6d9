"""The check table: it rebuilds the golden reports' verdicts, each row flips at
its own bound and at no other, a NaN value fails its row, and small inputs
pass while the bounds still separate members from non-members."""

import copy
from pathlib import Path

import numpy as np
import pytest
import yaml

from nced import checks
from nced import noncomm as nc
from nced import smallgroup as sg
from nced.cli import analyze
from nced.errors import InconsistentInputError

GOLDEN = Path(__file__).parent / "data" / "golden"
REPORTS = sorted(GOLDEN.glob("*.report.yaml"))


def load(path):
    report = yaml.safe_load(path.read_text())
    k = np.array([complex(re, im) for re, im in report["k_vector"]])
    return report, k


def rows(k, peak):
    """Each check's value path, bound and side (``upper``: passes at or
    below the bound; ``lower``: at or above), as documented in the README.
    Each |K_i| is hypot's, as in ``checks.verdicts``."""
    k_max = float(np.max(np.hypot(k.real, k.imag)))
    scale = max(1.0, k_max)
    small = [
        ("stabilizer", ("small_group", "max_stabilizer_residual"), 1e-11 * scale, "upper"),
        ("group_law", ("small_group", "group_law_defect"), 1e-11 * scale, "upper"),
        ("abelian", ("small_group", "abelian_defect"), 1e-11 * scale, "upper"),
        ("invariance", ("small_group", "max_invariance_residual"), 1e-11 * scale ** 2,
         "upper"),
        ("distinguishes_nonmembers", ("small_group", "nonmember_rotation_residual"),
         1e-4 * min(k_max, 1e4), "lower"),
        ("full_covariance", ("covariant_transport_residual",), 1e-11 * scale ** 2, "upper"),
        ("canonical_form", ("canonical_form", "reduction_residual"), 1e-10 * scale, "upper"),
        ("canonical_form", ("canonical_form", "k_square_drift"), 1e-11 * scale ** 2, "upper"),
        ("factorization", ("factorization", "recomposition_defect"), 1e-11 * scale, "upper"),
    ]
    if peak == 0.0:
        duality = [("duality_zeros", ("duality", "quarter_turn_residuals", 2), 1e-13, "upper")]
    else:
        duality = [
            ("duality_zeros", ("duality", "quarter_turn_residuals", 2),
             1e-11 * max(1.0, peak), "upper"),
            ("duality_discrete", ("duality", "offgrid_min_residual"), 1e-6 * peak, "lower"),
        ]
    return (small if np.any(k) else []) + duality


def put(report, path, value):
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.name)
def test_verdicts_rebuild_golden_checks(path):
    report, k = load(path)
    rebuilt = checks.verdicts(report, k)
    assert list(rebuilt.items()) == list(report["checks"].items())


@pytest.mark.parametrize("factor", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize("zero_peak", [False, True])
@pytest.mark.parametrize("kind", ["nonisotropic", "isotropic", "zero"])
def test_each_row_flips_only_its_own_check(kind, zero_peak, factor):
    base, k = load(GOLDEN / f"{kind}.default.report.yaml")
    k = k * factor
    if zero_peak:
        base["duality"]["peak_residual"] = 0.0
    peak = base["duality"]["peak_residual"]
    assert (peak == 0.0) == (zero_peak or kind == "zero")
    table = rows(k, peak)
    # every value exactly at its bound passes
    for _, path, bound, _ in table:
        put(base, path, bound)
    assert all(checks.verdicts(base, k).values())
    for name, path, bound, side in table:
        report = copy.deepcopy(base)
        put(report, path, np.nextafter(bound, np.inf if side == "upper" else -np.inf))
        got = checks.verdicts(report, k)
        assert [c for c, ok in got.items() if not ok] == [name], (name, path)
    if peak == 0.0:
        # no off-grid value can fail the commutative limit
        put(base, ("duality", "offgrid_min_residual"), 0.0)
        assert checks.verdicts(base, k)["duality_discrete"] is True


@pytest.mark.parametrize("kind", ["nonisotropic", "isotropic", "zero"])
def test_nan_value_fails_its_row(kind):
    base, k = load(GOLDEN / f"{kind}.default.report.yaml")
    assert all(checks.verdicts(base, k).values())
    for name, path, _, _ in rows(k, base["duality"]["peak_residual"]):
        report = copy.deepcopy(base)
        put(report, path, float("nan"))
        assert checks.verdicts(report, k)[name] is False, (name, path)
    # a NaN peak is a NaN bound: neither duality row can pass against it
    put(base, ("duality", "peak_residual"), float("nan"))
    got = checks.verdicts(base, k)
    assert (got["duality_zeros"], got["duality_discrete"]) == (False, False)


def huge_isotropic_report(m):
    """The report of an isotropic K of size ``m``, in a fixed random direction."""
    rng = np.random.default_rng(3)
    p = rng.normal(size=3)
    p /= np.linalg.norm(p)
    q = rng.normal(size=3)
    q -= (q @ p) * p
    q /= np.linalg.norm(q)
    report = analyze(nc.ThetaVectors(m * q, m * p), "in.yaml", scan_n=360, trials=100, seed=42)
    assert report["classification"] == nc.ISOTROPIC
    return report


def test_huge_isotropic_invariance_residual_stays_finite():
    """At |K| = 1e100 the small group's elements are of size one, so the
    invariance residual is rounding of size u·|K|² and its row passes; it
    overflowed to NaN while the elements grew with K. A NaN value failing its
    row is test_nan_value_fails_its_row's."""
    report = huge_isotropic_report(1e100)
    assert np.isfinite(report["small_group"]["max_invariance_residual"])
    assert report["checks"]["invariance"] is True


def test_overflowing_duality_residuals_fail():
    """At |K| = 1e140 every component of the duality defect overflows, so the
    duality state's own residual is NaN and the scan rejects the state: no
    report carries NaN duality values. A maximum that skipped NaN would make
    each residual 0.0, the commutative limit, and the state would pass."""
    with pytest.raises(InconsistentInputError, match=r"\(residual nan\)"):
        huge_isotropic_report(1e140)


def test_zero_report_gets_only_duality_rows():
    report, k = load(GOLDEN / "zero.default.report.yaml")
    assert not np.any(k)
    assert list(checks.verdicts(report, k)) == ["duality_zeros", "duality_discrete"]


# Inputs that exited 1 with only distinguishes_nonmembers false while its
# bound was floored at 1e-4: the nonmember residual is of degree 1 in K.
# The isotropic ones from 3e-9 to 1e-7 exited 1 when a unit-norm check
# renormalized the canonical element or rejected it as non-unit.
SMALL = [("nonisotropic", m) for m in (3e-9, 1e-8, 1e-7, 1e-6, 1e-5)] + \
        [("isotropic", m) for m in (3e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)]


def small_k(kind, m):
    if kind == "nonisotropic":
        return nc.ThetaVectors(np.array([0.3, -1.0, 0.5]) * m, np.array([1.0, 0.2, 2.0]) * m)
    return nc.ThetaVectors(np.array([0.0, -1.0, 0.0]) * m, np.array([1.0, 0.0, 0.0]) * m)


@pytest.mark.parametrize("kind,m", SMALL)
def test_small_inputs_pass(kind, m):
    # nced analyze's default flags
    report = analyze(small_k(kind, m), "in.yaml", scan_n=360, trials=100, seed=42)
    assert report["classification"] == kind
    assert report["status"] == "pass" and all(report["checks"].values())


@pytest.mark.parametrize("kind,m", SMALL)
def test_small_inputs_still_separate_members(kind, m):
    k = nc.k_from_vectors(small_k(kind, m))
    bound = dict((name, b) for name, _, b, _ in rows(k, 1.0))
    member = sg.element(sg.describe(k), 0.5 + 0.5j)
    assert float(sg.stabilizes(member, k)) <= bound["stabilizer"]
    nonmember = checks.nonmember_residual(k)
    assert nonmember >= bound["distinguishes_nonmembers"]
    # the stabilizer bound still rejects a non-member by a wide margin
    assert nonmember > 100 * bound["stabilizer"]
