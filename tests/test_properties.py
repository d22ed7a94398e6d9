"""Property: every valid input, in vector or matrix form, gets a report, and
the report passes exactly when each of its checks does.

Inputs are drawn across |K| from 1e-12 to 1e50, on the isotropic cone and in
the band beside it that is classified isotropic although K is not null, and
at exact zero. An error raised from ``analyze`` on a valid input, such as a
check of its own that stops the report, fails the property.
"""

import numpy as np
import pytest

from nced import cli
from nced import noncomm as nc

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

MAGNITUDES = st.floats(-12.0, 50.0).map(lambda e: 10.0 ** e)
SIGNS = st.sampled_from([-1.0, 1.0])
ANGLES = st.floats(0.0, 2.0 * np.pi)


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
def test_every_valid_input_gets_a_report_that_passes_when_its_checks_do(doc):
    report = cli.analyze(cli._theta_vectors(doc), "x", 16, 3, 0)
    assert all(type(ok) is bool for ok in report["checks"].values())
    assert (report["status"] == "pass") == all(report["checks"].values())
