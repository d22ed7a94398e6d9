"""Stabilizer construction, group laws, canonical reduction, form-invariance."""

import numpy as np
import pytest

from nced import algebra as alg
from nced import lorentz as lo
from nced import noncomm as nc
from nced import smallgroup as sg
from nced.errors import ZeroKError
from conftest import group_law, rand_isotropic_k, rand_nonisotropic_k, rand_unit_element
from test_algebra import _TABLE


def test_describe_real_axis():
    # max|K_i| = 1 = 0.5·2¹, so phi = conj(K) / 2, exactly
    k = np.array([0, 0, 1.0], complex)
    d = sg.describe(k)
    assert d.kind == nc.NONISOTROPIC
    assert np.array_equal(d.phi, [0, 0, 0.5]) and d.square == 0.25


def test_describe_isotropic_example():
    # epsilon = (0,-1,0), theta = (1,0,0): phi = theta + i eps = (1, -i, 0)
    k = nc.k_from_vectors(nc.ThetaVectors(np.array([0, -1.0, 0]), np.array([1.0, 0, 0])))
    d = sg.describe(k)
    assert d.kind == nc.ISOTROPIC
    assert np.array_equal(d.phi, [0.5, -0.5j, 0.0]) and d.square == 0.0


def test_describe_zero_raises():
    with pytest.raises(ZeroKError):
        sg.describe(np.zeros(3, complex))


def test_describe_scales_conj_k_into_half_to_one():
    rng = np.random.default_rng(0)
    for m in 10.0 ** np.arange(-8, 150, 7):
        for make in (rand_nonisotropic_k, rand_isotropic_k):
            k = m * make(rng)
            d = sg.describe(k)
            size = np.max(alg.cabs(d.phi))
            assert 0.5 <= size < 1.0
            # the scale is a power of two: the mantissas of K are kept
            assert np.array_equal(np.frexp(d.phi.view(float))[0],
                                  np.frexp(nc.phi_from_k(k).view(float))[0])
            assert d.square == complex(alg.cdot(d.phi, d.phi))


@pytest.mark.parametrize("kind, k", [(nc.NONISOTROPIC, [0, 0, 1.0]),
                                     (nc.ISOTROPIC, [1.0, -1.0j, 0])])
def test_element_identity_at_zero_parameter(kind, k):
    d = sg.describe(np.array(k, complex))
    assert d.kind == kind
    # cos 0 = 1 and sin 0 = 0, and 1 + 0·phi is exactly the identity too
    assert np.max(np.abs(sg.element(d, 0.0) - lo.identity())) == 0.0


def test_element_rotation_and_boost_on_real_axis():
    # phi = (0, 0, 1/2), so the half-angle is w/2; element is lorentz.exp, so
    # the rotation and the boost are written out in real cos/sin, cosh/sinh
    d = sg.describe(np.array([0, 0, 1.0], complex))
    a = 0.3
    rot = sg.element(d, 2 * a)
    assert np.max(np.abs(rot - alg.quat(np.cos(a), (0, 0, np.sin(a))))) <= 1e-15
    b = 0.4
    bst = sg.element(d, 2j * b)
    assert np.max(np.abs(bst - alg.quat(np.cosh(b), (0, 0, 1j * np.sinh(b))))) <= 1e-15


def test_exponential_map_is_unit_and_additive_as_identities_in_s():
    """With s = phi.phi = r², element(w) = cos(w r) + (sin(w r) / r)·phi. Over
    the structure constants of the algebra, for a symbolic phi, its norm is 1
    and L(w1)·L(w2) = L(w1 + w2) as identities in r, so for every s, and
    both sides are even in r: the map needs no branch of sqrt(s). At s = 0
    it is the isotropic family 1 + w·phi."""
    sympy = pytest.importorskip("sympy")
    w1, w2, r = sympy.symbols("w1 w2 r")
    phi = sympy.symbols("p1:4")

    def exp_map(w):
        return [sympy.cos(w * r)] + [sympy.sin(w * r) / r * x for x in phi]

    def on_the_quadric(expr):
        # s = r²: eliminate p3² in favour of r² - p1² - p2²
        p3_squared = r ** 2 - phi[0] ** 2 - phi[1] ** 2
        return sympy.expand(sympy.expand(expr).subs(phi[2] ** 2, p3_squared))

    def vanishes(expr):
        return sympy.simplify(sympy.expand_trig(on_the_quadric(expr))) == 0

    L1, L2, L12 = exp_map(w1), exp_map(w2), exp_map(w1 + w2)
    assert vanishes(sum(x * x for x in L1) - 1)
    product = [sum(L1[a] * L2[b] * _TABLE[a, b, c] for a in range(4) for b in range(4))
               for c in range(4)]
    assert all(vanishes(x - y) for x, y in zip(product, L12))
    assert [sympy.limit(x, r, 0) for x in L1] == [1, w1 * phi[0], w1 * phi[1], w1 * phi[2]]
    assert [x.subs(r, -r) for x in L1] == L1


def test_stabilizes_members():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = rand_nonisotropic_k(rng)
        d = sg.describe(k)
        chi = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        assert sg.stabilizes(sg.element(d, chi), k) <= 1e-12 * np.exp(4 * abs(chi))
    for _ in range(50):
        k = rand_isotropic_k(rng)
        d = sg.describe(k)
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert sg.stabilizes(-1 * sg.element(d, w), k) <= 1e-12 * (1 + abs(w)) ** 2


def test_stabilizes_identity_exactly():
    rng = np.random.default_rng(4)
    k = rand_nonisotropic_k(rng)
    assert sg.stabilizes(lo.identity(), k) == 0.0


def test_generic_rotation_fails_to_stabilize():
    k = np.array([0, 0, 1.0], complex)
    L = lo.exp(0.5, (1.0, 0, 0))
    assert sg.stabilizes(L, k) > 1e-3


def test_group_law_nonisotropic():
    rng = np.random.default_rng(5)
    k = rand_nonisotropic_k(rng)
    d = sg.describe(k)
    assert group_law(d, 0.0, 0.7 - 0.2j) <= 1e-14
    # trig addition across the complex plane
    assert group_law(d, 0.4 + 0.1j, -0.2 + 0.3j) <= 1e-12
    for _ in range(100):
        p1 = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        p2 = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        assert group_law(d, p1, p2) <= 1e-12 * np.exp(2 * (abs(p1) + abs(p2)))


def test_group_law_isotropic():
    rng = np.random.default_rng(6)
    k = rand_isotropic_k(rng)
    d = sg.describe(k)
    assert group_law(d, 1 + 1j, 2 - 1j) <= 1e-12
    for _ in range(100):
        # the signs keep the draws; -L composes to the same defect
        p1 = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), int(rng.choice([-1, 1])))
        p2 = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), int(rng.choice([-1, 1])))
        assert group_law(d, p1[0], p2[0]) <= 1e-12


def test_abelian():
    rng = np.random.default_rng(7)
    k = rand_nonisotropic_k(rng)
    d = sg.describe(k)
    for _ in range(50):
        e1 = sg.element(d, complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)))
        e2 = sg.element(d, complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)))
        comm = alg.mul(e1, e2) - alg.mul(e2, e1)
        assert np.max(np.abs(comm)) <= 1e-12 * max(1.0, lo.abs2(e1) * lo.abs2(e2))


def test_isotropic_nilpotency():
    rng = np.random.default_rng(8)
    k = rand_isotropic_k(rng)
    d = sg.describe(k)
    for w, sign in [(1.0 + 0j, 1), (2.0 - 1.0j, -1), (0.5j, 1)]:
        L = sign * sg.element(d, w)
        shifted = L - sign * lo.identity()
        sq = alg.mul(shifted, shifted)
        assert np.max(np.abs(sq)) <= 1e-13 * max(1.0, np.max(np.abs(shifted)) ** 2)


@pytest.mark.parametrize("j", [-25, -3, 5, 100, 480])
def test_power_of_two_scaling_is_exact(j):
    """describe(2^j K) has the bits of describe(K), so the elements are the
    same, and their stabilizer residual on 2^j K is exactly 2^j times the
    one on K."""
    rng = np.random.default_rng(9)
    w = rng.uniform(-1.4, 1.4, 20) + 1j * rng.uniform(-1.4, 1.4, 20)
    for make in (rand_nonisotropic_k, rand_isotropic_k) * 25:
        k = make(rng)
        d, d2 = sg.describe(k), sg.describe(np.ldexp(1.0, j) * k)
        assert d2.kind == d.kind
        assert np.array_equal(d2.phi.view(np.uint64), d.phi.view(np.uint64))
        assert np.array_equal(np.array([d2.square]).view(np.uint64),
                              np.array([d.square]).view(np.uint64))
        L = sg.element(d, w)
        assert np.array_equal(sg.stabilizes(L, np.ldexp(1.0, j) * k),
                              np.ldexp(sg.stabilizes(L, k), j))


def test_structure_rotation_boost_split():
    # on a canonical (real) axis the polar factors are exactly the rotation
    # and boost generated by Re(chi) and Im(chi)
    d = sg.describe(np.array([0, 1.0, 0], complex))
    a, b = 0.37, 0.21
    L = sg.element(d, 2 * (a + 1j * b))
    rot, bst = lo.factorize(L)
    assert np.max(np.abs(rot - lo.exp(a, (0, 1, 0)))) <= 1e-13
    assert np.max(np.abs(bst - lo.exp(1j * b, (0, 1, 0)))) <= 1e-13


def test_stabilizer_candidates_have_aligned_vector_part():
    # spot-check exhaustiveness: random unit elements that happen to nearly
    # stabilize K must have vector part nearly parallel to phi
    rng = np.random.default_rng(10)
    k = rand_nonisotropic_k(rng)
    phi = nc.phi_from_k(k)
    for _ in range(300):
        L = rand_unit_element(rng)
        if sg.stabilizes(L, k) < 1e-6:
            cross = np.abs(alg.ccross(L[1:], phi))
            assert np.max(cross) <= 1e-5 * max(1.0, np.max(np.abs(L[1:])))


# ---------------------------------------------------------------------------
# canonical forms


@pytest.mark.parametrize("axis", [(0, 0, 2.0), (1.0, 0, 0), (0, -3.0, 0), (1.0, 2.0, -2.0),
                                  (-2.0, 0, 0)])
def test_canonical_form_already_real(axis):
    # a real axis is carried onto x by a real half-turn; (-2, 0, 0) is
    # antiparallel to its target, so it takes the y-flip branch
    k = np.array(axis, complex)
    L, k_can = sg.canonical_form(k)
    assert np.all(L.imag == 0.0)
    assert np.max(np.abs(k_can - [np.linalg.norm(axis), 0, 0])) <= 1e-15 * np.linalg.norm(axis)
    assert np.array_equal(k_can, lo.act_vector(L, k))


def test_canonical_form_explicit_pair():
    # K = 1.3 (n - i m) with n = (sqrt 2, 0, 0), m = (0, 1, 0): K.K = 1.69
    k = 1.3 * np.array([np.sqrt(2.0), -1.0j, 0.0])
    L, k_can = sg.canonical_form(k)
    assert np.max(np.abs(k_can[1:])) <= 1e-15
    assert abs(k_can[0] - 1.3) <= 1e-15


def test_canonical_form_random():
    # K lands on the principal sqrt(K.K) times the x axis
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = rand_nonisotropic_k(rng)
        L, k_can = sg.canonical_form(k)
        assert np.max(np.abs(k_can[1:])) <= 1e-15 * np.max(np.abs(k)) * lo.abs2(L)
        assert abs(k_can[0] - np.sqrt(k @ k)) <= 1e-14
        assert abs(k_can @ k_can - k @ k) <= 1e-12 * max(1.0, abs(k @ k)) * lo.abs2(L) ** 2


def test_canonical_form_rejects_zero_k():
    with pytest.raises(ZeroKError):
        sg.canonical_form(np.zeros(3, complex))


def test_canonical_form_reaches_null_reference():
    rng = np.random.default_rng(13)
    for _ in range(50):
        k = rand_isotropic_k(rng)
        L, k_can = sg.canonical_form(k)
        assert np.max(np.abs(k_can - [1.0, 1.0j, 0.0])) <= 1e-13
        assert abs(k_can @ k_can) <= 1e-13


def near_isotropic_k(rng, r):
    """K of |eps| = 1 and theta orthogonal to it with theta^2 - eps^2 = r."""
    e = rng.normal(size=3)
    e /= np.linalg.norm(e)
    t = rng.normal(size=3)
    t -= (t @ e) * e
    t *= np.sqrt(1.0 + r) / np.linalg.norm(t)
    return nc.k_from_vectors(nc.ThetaVectors(e, t))


def nearly_real_k(rng, r):
    """Nonisotropic K with |epsilon| = r |theta|: Im phi_hat is of order r."""
    t = rng.normal(size=3)
    e = rng.normal(size=3)
    e *= r * np.linalg.norm(t) / np.linalg.norm(e)
    return nc.k_from_vectors(nc.ThetaVectors(e, t))


@pytest.mark.parametrize("kind", ["isotropic", "nonisotropic", "near-isotropic",
                                  "nearly-real"])
def test_canonical_element_norm_defect_is_rounding(kind):
    # a half-turn, unit up to the rounding of c.c, times a unit z-boost for
    # an isotropic K: the norm defect is its own rounding, so canonical_form
    # need not renormalize it (worst seen 6); a nearly-real K has |epsilon|
    # from 1e-16 to 1e-4 of |theta|
    rng = np.random.default_rng(16)
    u = np.finfo(float).eps / 2
    for m in np.logspace(-8, 8, 17):
        for _ in range(20):
            if kind == "isotropic":
                k = rand_isotropic_k(rng)
            elif kind == "nonisotropic":
                k = rand_nonisotropic_k(rng)
            elif kind == "near-isotropic":
                k = near_isotropic_k(rng, 10.0 ** rng.uniform(-8, -1))
            else:
                k = nearly_real_k(rng, 10.0 ** rng.uniform(-16, -4))
            L, _ = sg.canonical_form(m * k)
            assert abs(alg.norm(L) - 1.0) <= 16 * u * lo.abs2(L), (m, k)


# ---------------------------------------------------------------------------
# form-invariance of the constitutive relations


def test_invariance_identity():
    rng = np.random.default_rng(14)
    k = rand_nonisotropic_k(rng)
    E, B = rng.normal(size=3), rng.normal(size=3)
    assert sg.verify_constitutive_invariance(k, lo.identity(), E, B) == 0.0


def test_invariance_members():
    rng = np.random.default_rng(15)
    for kind in ("noniso", "iso"):
        for _ in range(10):
            k = rand_nonisotropic_k(rng) if kind == "noniso" else rand_isotropic_k(rng)
            d = sg.describe(k)
            for _ in range(20):
                if d.kind == nc.NONISOTROPIC:
                    L = sg.element(d, complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)))
                else:
                    w = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
                    L = int(rng.choice([-1, 1])) * sg.element(d, w)
                E, B = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
                resid = sg.verify_constitutive_invariance(k, L, E, B)
                assert resid <= 1e-12 * max(1.0, lo.abs2(L) ** 3)


def test_negated_isotropic_elements_give_the_same_residual_bits():
    """-L is the other sheet of the double cover of L = 1 + w*phi and acts as
    L does: negation is exact, so every residual the analyzer forms has the
    same bits for -L, and the element needs no sign."""
    rng = np.random.default_rng(16)
    n = 50

    def residuals(L1, L2, target, k, E, B):
        comm = alg.mul(L1, L2) - alg.mul(L2, L1)
        return [sg.stabilizes(L1, k), sg.verify_constitutive_invariance(k, L1, E, B),
                np.max(alg.cabs(comm), axis=-1),
                np.max(alg.cabs(alg.mul(L1, L2) - target), axis=-1)]

    for m in 10.0 ** np.arange(-8, 9):
        k = m * rand_isotropic_k(rng)
        d = sg.describe(k)
        assert d.kind == nc.ISOTROPIC
        w = rng.uniform(-1.4, 1.4, (n, 2)) + 1j * rng.uniform(-1.4, 1.4, (n, 2))
        E, B = rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, (n, 3))
        L1, L2 = sg.element(d, w[:, 0]), sg.element(d, w[:, 1])
        target = sg.element(d, w[:, 0] + w[:, 1])
        plain = residuals(L1, L2, target, k, E, B)
        assert all(np.all(np.isfinite(r)) for r in plain)
        assert np.array_equal(plain[3].view(np.uint64),
                              sg.group_law_check(d, alg.mul(L1, L2), w[:, 0] + w[:, 1]).view(np.uint64))
        for flip1, flip2 in ((True, False), (False, True), (True, True)):
            signed = residuals(-L1 if flip1 else L1, -L2 if flip2 else L2,
                               -target if flip1 != flip2 else target, k, E, B)
            for r, q in zip(plain, signed):
                assert np.array_equal(r.view(np.uint64), q.view(np.uint64)), (m, flip1, flip2)


def test_invariance_nonmember_boost():
    E = np.array([1.0, 0, 0])
    B = np.array([0, 1.0, 0])
    k = np.array([0, 0, 1.0], complex)  # |K| ~ 1
    L = lo.exp(0.3j, (1.0, 0, 0))
    assert sg.verify_constitutive_invariance(k, L, E, B) > 1e-4
