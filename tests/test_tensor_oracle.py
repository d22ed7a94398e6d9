"""A second definition of the report rows that the small group and the
canonical form write: each is restated in the real 4x4 picture, with a
Lorentz matrix that no ``nced`` kernel forms.

A unit element L = exp(v), v a complex pure vector, acts on four-vectors by
Λ(v) = expm(2·(J(Re v) + K(Im v))), where J and K are the rotation and boost
generators; their signs are pinned to ``test_acceptance``'s closed forms.
v is read off L itself (``log_element``), so the oracle tests the elements
as built. The noncommutativity tensor T = ``tensor_from_vectors`` moves as
ΛTΛᵀ. Each comparison is bounded by c·u times the sizes of the matrices it
multiplies; ``pytest -s`` prints the worst ratio to that bound.

Inputs: the three golden inputs, and from each row of ``failure_map`` the
first of its draws whose report passes, or its first draw where none does.
A row is checked on every input whose report passes it: a row that says
true must hold in the tensor picture. The zero input has no small group,
canonical form or factorization, which is checked as well. The canonical
row also takes K = -2x and K = 3 (1, i, 0), where ``canonical_form`` turns
about K + t' and then about y, for each kind.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from nced import noncomm as nc
from nced import smallgroup as sg
from nced.cli import _FACTORIZED, _trial_blocks, analyze, load_input
from nced.lorentz import lorentz_matrix4
from failure_map import ROWS, draw, failures
from test_acceptance import _boost4, _rodrigues4
from conftest import rand_unit_element

expm = pytest.importorskip("scipy.linalg").expm

GOLDEN = Path(__file__).parent / "data" / "golden"
U = np.finfo(float).eps / 2
# The constant of every bound below. The oracle is as precise as scipy's expm:
# against mpmath's expm at 40 digits, it missed the small group's matrices by
# up to 4.4e3·u·|Λ| (nced's lorentz_matrix4 by 7u·|Λ|)
C = 2.0 ** 14
TRIALS, SEED = 100, 42


def law_trials():
    """The report's ``TRIALS`` group-law parameter pairs, ``p_law[TRIALS, 2]``."""
    return np.concatenate(list(_trial_blocks(TRIALS, SEED)[0]))


def J(a):
    """Generator of rotations about the real vector a."""
    g = np.zeros((4, 4))
    g[1:, 1:] = [[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]]
    return g


def K(b):
    """Generator of boosts along the real vector b, in _boost4's orientation."""
    g = np.zeros((4, 4))
    g[0, 1:] = g[1:, 0] = -np.asarray(b)
    return g


def lam(v):
    return expm(2.0 * (J(v.real) + K(v.imag)))


def log_element(L):
    """A pure vector v with exp(v) = ±L, for a unit L = (c, u): v = u·σ/sin σ
    with cos σ = c. -L acts as L, so L is flipped to Re c ≥ 0, where σ = 0 is
    the only zero of sin σ; the ratio is even in σ, so the half digits that
    arccos loses near c = 1 do not reach it."""
    L = np.asarray(L, np.complex128)
    if L[0].real < 0:
        L = -L
    sigma = np.arccos(L[0])
    return L[1:] * (1.0 if sigma == 0 else sigma / np.sin(sigma))


def lam_of(L):
    return lam(log_element(L))


def size(m):
    return float(np.max(np.abs(m)))


worst = {}


def within(name, defect, bound):
    """``defect`` ≤ ``bound``, keeping the worst ratio of ``name``."""
    ratio = float(defect) / bound
    worst[name] = max(worst.get(name, 0.0), ratio)
    return ratio <= 1.0


@pytest.fixture(scope="module", autouse=True)
def print_ratios():
    yield
    for name, ratio in sorted(worst.items()):
        print(f"tensor oracle {name}: worst defect / bound = {ratio:.3g}")


def complexes(pairs):
    return np.array([complex(re, im) for re, im in pairs])


# ---------------------------------------------------------------------------
# inputs

GOLDEN_IDS = ["golden-nonisotropic", "golden-isotropic", "golden-zero"]
MAP_IDS = [f"{family}-{size:g}" for family, size in ROWS]
# the y-flip branch of canonical_form, one input per kind: K = -2x and
# K = theta - i epsilon = 3 (1, i, 0)
FLIPPED = {"flip-nonisotropic": nc.ThetaVectors(np.zeros(3), np.array([-2.0, 0.0, 0.0])),
           "flip-isotropic": nc.ThetaVectors(np.array([0.0, -3.0, 0.0]), np.array([3.0, 0.0, 0.0]))}


@functools.cache
def inputs():
    """``{id: (vectors, report)}`` over the golden and failure-map inputs."""
    out = {}
    for name in GOLDEN_IDS:
        tv = load_input(GOLDEN / f"{name.split('-')[1]}.yaml")
        out[name] = tv, analyze(tv, "x", 360, TRIALS, SEED)
    rng = np.random.default_rng(2026)
    for name, (family, size_) in zip(MAP_IDS, ROWS):
        draws = [draw(family, size_, rng) for _ in range(20)]
        tv = next((tv for tv in draws if not failures(tv)), draws[0])
        out[name] = tv, analyze(tv, "x", 360, TRIALS, SEED)
    for name, tv in FLIPPED.items():
        out[name] = tv, analyze(tv, "x", 360, TRIALS, SEED)
    return out


NONZERO = GOLDEN_IDS[:2] + MAP_IDS


def case(name, *rows):
    """(K, T, report) of input ``name``; skips an input whose report fails
    one of ``rows``."""
    tv, report = inputs()[name]
    failed = [row for row in rows if not report["checks"][row]]
    if failed:
        pytest.skip(f"the report fails {', '.join(failed)}: nothing is claimed")
    return nc.k_from_vectors(tv), nc.tensor_from_vectors(tv), report


# ---------------------------------------------------------------------------
# the oracle itself


def test_generators_are_pinned_to_the_closed_forms():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        a, b = rng.uniform(-1.5, 1.5, 2)
        rot, bst = _rodrigues4(n, 2 * a), _boost4(n, 2 * b)
        assert within("rotation closed form", np.max(np.abs(lam(a * n + 0j) - rot)), C * U)
        assert within("boost closed form", np.max(np.abs(lam(1j * b * n) - bst)), C * U * size(bst))


def test_oracle_is_the_four_vector_action_of_the_element():
    """On random unit elements the oracle is the matrix that transports T in
    the vector picture (``test_noncomm::test_cross_picture_consistency``)."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        L = rand_unit_element(rng)
        m = lorentz_matrix4(L)
        assert within("four-vector action", np.max(np.abs(lam_of(L) - m)), C * U * size(m))


def test_zero_input_claims_no_small_group():
    report = inputs()["golden-zero"][1]
    assert not {"small_group", "canonical_form", "factorization"} & report.keys()


# ---------------------------------------------------------------------------
# the rows


def fixes(name, lam_, t):
    return within(name, np.max(np.abs(lam_ @ t @ lam_.T - t)), C * U * size(lam_) ** 2 * size(t))


@pytest.mark.parametrize("name", NONZERO)
def test_sample_and_trial_elements_fix_the_tensor(name):
    k, t, report = case(name, "stabilizer")
    samples = [complexes(s["element"]) for s in report["small_group"]["sample_elements"]]
    p_law = law_trials()
    trials = sg.element(sg.describe(k), p_law[:, 0])
    for L in [*samples, *trials]:
        assert fixes("stabilizer", lam_of(L), t)


@pytest.mark.parametrize("name", NONZERO)
def test_group_law_holds_as_matrices(name):
    k, _, _ = case(name, "group_law", "abelian")
    d = sg.describe(k)
    p_law = law_trials()
    e1, e2 = sg.element(d, p_law[:, 0]), sg.element(d, p_law[:, 1])
    e12 = sg.element(d, p_law[:, 0] + p_law[:, 1])
    for a, b, ab in zip(e1, e2, e12):
        la, lb, lab = lam_of(a), lam_of(b), lam_of(ab)
        # each entry of la @ lb, and so of lab, sums 4 products
        bound = 4 * C * U * size(la) * size(lb)
        assert within("group_law", np.max(np.abs(la @ lb - lab)), bound)
        assert within("abelian", np.max(np.abs(la @ lb - lb @ la)), bound)


@pytest.mark.parametrize("name", NONZERO + list(FLIPPED))
def test_canonical_element_reaches_the_canonical_tensor(name):
    """Nonisotropic: T′ = ΛTΛᵀ vanishes apart from its (0, 1) and (2, 3)
    pairs, so ε′ and θ′ lie along x. Isotropic: T′ is the reference null
    form of ε = (0, -1, 0), θ = (1, 0, 0), K = (1, i, 0)."""
    _, t, report = case(name, "canonical_form")
    lam_ = lam_of(complexes(report["canonical_form"]["element"]))
    t_can = lam_ @ t @ lam_.T
    bound = C * U * size(lam_) ** 2 * size(t)
    if report["classification"] == nc.NONISOTROPIC:
        off = t_can.copy()
        off[[0, 1, 2, 3], [1, 0, 3, 2]] = 0.0
        assert within("canonical nonisotropic", np.max(np.abs(off)), bound)
    else:
        ref = nc.tensor_from_vectors(nc.ThetaVectors(np.array([0.0, -1.0, 0.0]),
                                                     np.array([1.0, 0.0, 0.0])))
        assert within("canonical isotropic", np.max(np.abs(t_can - ref)), bound)


@pytest.mark.parametrize("name", NONZERO)
def test_factors_are_a_rotation_and_a_boost(name):
    """The rotation's Λ is orthogonal with Λ₀₀ = 1, the boost's is symmetric
    positive definite, and their product is the factorized element's."""
    k, _, report = case(name, "factorization")
    fact = report["factorization"]
    rot, bst = lam_of(complexes(fact["rotation"])), lam_of(complexes(fact["boost"]))
    assert within("rotation orthogonal", np.max(np.abs(rot @ rot.T - np.eye(4))), C * U)
    assert within("rotation time axis", abs(rot[0, 0] - 1.0), C * U)
    assert within("boost symmetric", np.max(np.abs(bst - bst.T)), C * U * size(bst))
    assert np.min(np.linalg.eigvalsh(0.5 * (bst + bst.T))) > 0.0
    L = sg.element(sg.describe(k), _FACTORIZED)
    assert within("recomposition", np.max(np.abs(rot @ bst - lam_of(L))),
                  C * U * size(rot) * size(bst))
