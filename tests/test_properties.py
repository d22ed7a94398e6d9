"""Property: every valid input, in vector or matrix form, gets a report, the
report passes exactly when each of its checks does, and a check whose report
values are not all finite fails. And the small group of 2^j K is the small
group of K, bit for bit, as is a nonisotropic K's canonical element.

Inputs are drawn across |K| from 1e-12 to 1e50, on the isotropic cone and in
the band beside it that is classified isotropic although K is not null, and
at exact zero. An error raised from ``analyze`` on a valid input, such as a
check of its own that stops the report, fails the property.
"""

import numpy as np
import pytest

from nced import cli
from nced import noncomm as nc
from nced import smallgroup as sg
from conftest import rand_isotropic_k

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

MAGNITUDES = st.floats(-12.0, 50.0).map(lambda e: 10.0 ** e)
SIGNS = st.sampled_from([-1.0, 1.0])
ANGLES = st.floats(0.0, 2.0 * np.pi)

# each row of ``checks`` and the report values it compares with its bound
# (the README's check table); the duality rows also read the peak
ROW_VALUES = {
    "stabilizer": ["small_group.max_stabilizer_residual"],
    "group_law": ["small_group.group_law_defect"],
    "abelian": ["small_group.abelian_defect"],
    "invariance": ["small_group.max_invariance_residual"],
    "distinguishes_nonmembers": ["small_group.nonmember_rotation_residual"],
    "full_covariance": ["covariant_transport_residual"],
    "canonical_form": ["canonical_form.reduction_residual", "canonical_form.k_square_drift"],
    "factorization": ["factorization.recomposition_defect"],
    "duality_zeros": ["duality.quarter_turn_residuals", "duality.peak_residual"],
    "duality_discrete": ["duality.offgrid_min_residual", "duality.peak_residual"],
}


def _value(report, path):
    for key in path.split("."):
        report = report[key]
    return report


# isotropic K of size 1e80 (theta ⟂ epsilon, |theta| = |epsilon|); the
# invariance residual and the canonical form's K² drift overflow to NaN
K80 = rand_isotropic_k(np.random.default_rng(3))
K80 *= 1e80 / np.linalg.norm(K80.real)


@st.composite
def components(draw):
    """A component that is 0 or of magnitude 1e-12 … 1e50, either sign."""
    if draw(st.booleans()):
        return 0.0
    return draw(SIGNS) * draw(MAGNITUDES)


@st.composite
def orthonormal_pair(draw):
    """Two orthogonal real unit vectors: a direction and one tangent to the
    sphere there."""
    a, b, c = draw(ANGLES), draw(ANGLES), draw(ANGLES)
    p = np.array([np.sin(a) * np.cos(b), np.sin(a) * np.sin(b), np.cos(a)])
    e_a = np.array([np.cos(a) * np.cos(b), np.cos(a) * np.sin(b), -np.sin(a)])
    e_b = np.array([-np.sin(b), np.cos(b), 0.0])
    return p, np.cos(c) * e_a + np.sin(c) * e_b


@st.composite
def vectors(draw):
    """(epsilon, theta) of one family: generic components, the isotropic
    cone (theta ⟂ epsilon, |theta| = |epsilon|), the band beside it
    (theta ⟂ epsilon, theta² − epsilon² = r·epsilon², |r| in 1e-10 … 2e-9)
    or exact zero."""
    family = draw(st.sampled_from(["generic", "isotropic", "band", "zero"]))
    if family == "zero":
        return np.zeros(3), np.zeros(3)
    if family == "generic":
        triple = st.lists(components(), min_size=3, max_size=3)
        return np.array(draw(triple)), np.array(draw(triple))
    m = draw(MAGNITUDES)
    p, q = draw(orthonormal_pair())
    if family == "isotropic":
        return m * p, m * q
    r = draw(SIGNS) * draw(st.floats(1e-10, 2e-9))
    return m * p, m * np.sqrt(1.0 + r) * q


@st.composite
def documents(draw):
    """An input document, as ``load_input`` would parse it, in vector or
    matrix form."""
    eps, theta = draw(vectors())
    if draw(st.booleans()):
        return {"theta_matrix": nc.tensor_from_vectors(nc.ThetaVectors(eps, theta)).tolist()}
    return {"epsilon": eps.tolist(), "theta": theta.tolist()}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(documents())
@example({"epsilon": [0, -1.0, 0], "theta": [1.0, 0, 3.0e-5]})
@example({"epsilon": (-K80.imag).tolist(), "theta": K80.real.tolist()})
def test_every_valid_input_gets_a_report_that_passes_when_its_checks_do(doc):
    report = cli.analyze(cli._theta_vectors(doc), "x", 16, 3, 0)
    assert all(type(ok) is bool for ok in report["checks"].values())
    assert (report["status"] == "pass") == all(report["checks"].values())
    for row, ok in report["checks"].items():
        values = [_value(report, path) for path in ROW_VALUES[row]]
        if not all(np.all(np.isfinite(v)) for v in values):
            assert not ok, (row, values)


@st.composite
def unit_size_k(draw, on_cone=st.booleans()):
    """K of size about one: on the isotropic cone, s (p + i q), or off it,
    s p + i t (cos c q + sin c p), with p ⟂ q real unit vectors."""
    p, q = draw(orthonormal_pair())
    s = draw(st.floats(0.5, 2.0))
    if draw(on_cone):
        return s * (p + 1j * q)
    c = draw(ANGLES)
    return s * p + 1j * draw(st.floats(0.0, 2.0)) * (np.cos(c) * q + np.sin(c) * p)


PARAMETERS = st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=8)


# below 2^-25 a K of size one is classified zero; above 2^480 its |K|^2 overflows
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(unit_size_k(), st.integers(-25, 480), PARAMETERS)
def test_power_of_two_scaling_keeps_the_small_group_bits(k, j, w):
    """describe(2^j K) has the bits of describe(K), so the elements are the
    same, and their stabilizer residual on 2^j K is exactly 2^j times the
    one on K."""
    k2 = np.ldexp(1.0, j) * k
    d, d2 = sg.describe(k), sg.describe(k2)
    assert d2.kind == d.kind
    assert d2.phi.tobytes() == d.phi.tobytes()
    assert np.complex128(d2.square).tobytes() == np.complex128(d.square).tobytes()
    L = sg.element(d, np.array(w))
    assert sg.stabilizes(L, k2).tobytes() == np.ldexp(sg.stabilizes(L, k), j).tobytes()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(unit_size_k(on_cone=st.just(False)), st.integers(-25, 480))
def test_power_of_two_scaling_keeps_the_canonical_bits(k, j):
    """For a nonisotropic K, canonical_form(2^j K) has the element of
    canonical_form(K), bit for bit, and 2^j times its canonical vector: the
    target sqrt(K.K) x and the half-turn's axis scale exactly, as long as
    no product of two parts of K underflows at either scale."""
    parts = np.abs(k.view(float))
    assume(nc.classify(k) == nc.NONISOTROPIC and np.all((parts == 0) | (parts >= 2.0 ** -400)))
    L, k_can = sg.canonical_form(k)
    L2, k2_can = sg.canonical_form(np.ldexp(1.0, j) * k)
    assert L2.tobytes() == L.tobytes()
    assert k2_can.tobytes() == np.ldexp(k_can.view(float), j).view(np.complex128).tobytes()
