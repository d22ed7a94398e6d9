"""Stabilizer construction, group laws, canonical reduction, form-invariance."""

import numpy as np
import pytest

from nced import algebra as alg
from nced import lorentz as lo
from nced import noncomm as nc
from nced import smallgroup as sg
from nced.errors import ZeroKError
from conftest import group_law, rand_isotropic_k, rand_nonisotropic_k, rand_unit_element


def test_describe_real_axis():
    k = np.array([0, 0, 1.0], complex)
    d = sg.describe(k)
    assert d.kind == nc.NONISOTROPIC
    assert np.max(np.abs(d.phi_hat - [0, 0, 1.0])) <= 1e-15


def test_describe_isotropic_example():
    # epsilon = (0,-1,0), theta = (1,0,0): phi = theta + i eps = (1, -i, 0)
    k = nc.k_from_vectors(nc.ThetaVectors(np.array([0, -1.0, 0]), np.array([1.0, 0, 0])))
    d = sg.describe(k)
    assert d.kind == nc.ISOTROPIC
    assert np.max(np.abs(d.phi - [1.0, -1.0j, 0.0])) <= 1e-15
    assert abs(d.phi @ d.phi) <= 1e-15


def test_describe_zero_raises():
    with pytest.raises(ZeroKError):
        sg.describe(np.zeros(3, complex))


def test_describe_unit_axis_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = sg.describe(rand_nonisotropic_k(rng))
        assert abs(d.phi_hat @ d.phi_hat - 1.0) <= 1e-12


@pytest.mark.parametrize("kind, k", [(nc.NONISOTROPIC, [0, 0, 1.0]),
                                     (nc.ISOTROPIC, [1.0, -1.0j, 0])])
def test_element_identity_at_zero_parameter(kind, k):
    d = sg.describe(np.array(k, complex))
    assert d.kind == kind
    # cos 0 = 1 and sin 0 = 0, and 1 + 0·phi is exactly the identity too
    assert np.max(np.abs(sg.element(d, 0.0) - lo.identity())) == 0.0


def test_element_rotation_and_boost_on_real_axis():
    d = sg.describe(np.array([0, 0, 1.0], complex))
    a = 0.3
    rot = sg.element(d, a)
    assert np.max(np.abs(rot - lo.rotation((0, 0, 1), a))) <= 1e-15
    b = 0.4
    bst = sg.element(d, 1j * b)
    assert np.max(np.abs(bst - lo.boost((0, 0, 1), b))) <= 1e-15


def test_element_isotropic_norm_exact():
    rng = np.random.default_rng(1)
    d = sg.describe(rand_isotropic_k(rng))
    L = sg.element(d, 0.3 + 0.2j)
    assert abs(alg.norm(L) - 1.0) <= 1e-14
    # numpy's scalar product rounds as algebra._cmul does
    assert np.array_equal(L[1:], [np.complex128(0.3 + 0.2j) * x for x in d.phi])
    assert L[0] == 1.0


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
    L = lo.rotation((1.0, 0, 0), 0.5)
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


def test_parameter_periodicity():
    # chi + pi gives the other sheet of the double cover, same action
    rng = np.random.default_rng(9)
    k = rand_nonisotropic_k(rng)
    d = sg.describe(k)
    chi = 0.3 - 0.2j
    L1 = sg.element(d, chi)
    L2 = sg.element(d, chi + np.pi)
    assert np.max(np.abs(L1 + L2)) <= 1e-12
    assert np.max(np.abs(lo.so3c_matrix(L1) - lo.so3c_matrix(L2))) <= 1e-12
    L3 = sg.element(d, chi + 2 * np.pi)
    assert np.max(np.abs(L1 - L3)) <= 1e-12


def test_structure_rotation_boost_split():
    # on a canonical (real) axis the polar factors are exactly the rotation
    # and boost generated by Re(chi) and Im(chi)
    d = sg.describe(np.array([0, 1.0, 0], complex))
    a, b = 0.37, 0.21
    L = sg.element(d, a + 1j * b)
    rot, bst = lo.factorize(L)
    assert np.max(np.abs(rot - lo.rotation((0, 1, 0), a))) <= 1e-13
    assert np.max(np.abs(bst - lo.boost((0, 1, 0), b))) <= 1e-13


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


def test_canonical_form_already_real():
    k = np.array([0, 0, 2.0], complex)
    L, k_can = sg.canonical_form(k)
    assert np.max(np.abs(L - lo.identity())) == 0.0
    assert np.max(np.abs(k_can - k)) <= 1e-12


def test_canonical_form_explicit_pair():
    # phi_hat = n + i m with n = (sqrt 2, 0, 0), m = (0, 1, 0)
    phi_hat = np.array([np.sqrt(2.0), 1.0j, 0.0])
    assert abs(phi_hat @ phi_hat - 1.0) <= 1e-15
    k = np.conj(phi_hat) * 1.3
    L, k_can = sg.canonical_form(k)
    d = sg.describe(k)
    image = lo.act_vector(L, d.phi_hat)
    assert np.max(np.abs(image.imag)) <= 1e-12
    assert abs(image @ image - 1.0) <= 1e-12


def test_canonical_form_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = rand_nonisotropic_k(rng)
        L, k_can = sg.canonical_form(k)
        d = sg.describe(k)
        image = lo.act_vector(L, d.phi_hat)
        assert np.max(np.abs(image.imag)) <= 1e-11
        assert abs(k_can @ k_can - k @ k) <= 1e-12 * max(1.0, abs(k @ k)) * lo.abs2(L) ** 2


def test_canonical_form_rejects_zero_k():
    with pytest.raises(ZeroKError):
        sg.canonical_form(np.zeros(3, complex))


def test_canonical_form_reaches_null_reference():
    rng = np.random.default_rng(13)
    target = np.array([1.0, -1.0j, 0.0])
    for _ in range(50):
        k = rand_isotropic_k(rng)
        L, k_can = sg.canonical_form(k)
        image = lo.act_vector(L, nc.phi_from_k(k))
        assert np.max(np.abs(image - target)) <= 1e-11
        assert abs(k_can @ k_can) <= 1e-11


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
    # a unit rotation times a unit boost: the product's norm defect is its
    # own rounding, so canonical_form need not renormalize it (worst seen 6);
    # nearly-real K orients the rotation's frame by a tiny Im phi_hat
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
    L = lo.boost((1.0, 0, 0), 0.3)
    assert sg.verify_constitutive_invariance(k, L, E, B) > 1e-4
