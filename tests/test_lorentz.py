"""Lorentz elements: vector/four-vector actions, matrix realizations,
polar factorization."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nced import algebra as alg
from nced import cli
from nced import lorentz as lo
from nced import noncomm as nc
from nced import smallgroup as sg
from conftest import rand_isotropic_k, rand_rotation, rand_unit_element


def rand_cvec(rng):
    return rng.normal(size=3) + 1j * rng.normal(size=3)


# ---------------------------------------------------------------------------
# construction: elements are unit as built and are never renormalized

EPS = np.finfo(float).eps


def test_identity_is_exact_unit():
    L = lo.identity()
    assert np.array_equal(L, np.array([1, 0, 0, 0], np.complex128))
    assert alg.norm(L) == 1.0


def test_rotation_and_boost_norm_defect_is_rounding():
    # cos^2 + sin^2 and cosh^2 - sinh^2 each round a few times; the boost's
    # terms grow like cosh(beta)^2, so its defect is relative to that size
    rng = np.random.default_rng(18)
    for _ in range(200):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        chi = rng.uniform(-np.pi, np.pi)
        beta = rng.uniform(-5.0, 5.0)
        assert abs(alg.norm(lo.exp(chi, n)) - 1.0) <= 8 * EPS
        size = np.cosh(beta) ** 2
        assert abs(alg.norm(lo.exp(1j * beta, n)) - 1.0) <= 8 * EPS * size


@pytest.mark.parametrize("angle", [0.3, 2.0, 3.0])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_element_from_rotation_matrix_is_unit_as_built(axis, angle):
    # angles past 2*pi/3 make the trace negative, so Shepperd's method takes
    # the branch of the largest diagonal entry, which is the rotation axis
    n = np.eye(3)[axis] + 0.05 * np.array([1.0, -1.0, 0.5])
    q = lo.exp(angle / 2, n / np.linalg.norm(n))
    r = lo.so3c_entries(q).real
    q2 = lo.element_from_rotation_matrix(r)
    assert np.all(q2.imag == 0.0)
    assert abs(alg.norm(q2) - 1.0) <= 16 * EPS
    sign = 1.0 if np.abs(q2 - q).max() < np.abs(q2 + q).max() else -1.0
    assert np.max(np.abs(sign * q2 - q)) <= 1e-14


def exp_grid():
    """exp over real, imaginary and complex w, on the lab axes, on random
    unit real axes and on the stabilizer directions of the golden inputs."""
    golden = Path(__file__).parent / "data" / "golden"
    phis = [sg.describe(nc.k_from_vectors(cli.load_input(golden / f"{kind}.yaml"))).phi
            for kind in ("nonisotropic", "isotropic")]
    real = np.random.default_rng(26).normal(size=(4, 3))
    real /= np.linalg.norm(real, axis=1)[:, None]
    axes = np.vstack([np.eye(3), [0.6, 0.8, 0.0], real, phis])
    parts = np.linspace(-3.0, 3.0, 61)
    w = np.concatenate([(parts[:, None] + 1j * parts).ravel(), 1j * np.linspace(0.01, 3.0, 300)])
    return lo.exp(w[:, None], axes)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the setting names x86_64 SIMD targets")
def test_exp_keeps_its_bits_without_simd_dispatch():
    # the complex cos and sin take one code path on every CPU; numpy's real
    # cosh and sinh do not (their AVX-512 loops round differently)
    from numpy._core._multiarray_umath import __cpu_dispatch__
    if not __cpu_dispatch__:
        pytest.skip("numpy dispatches no SIMD target here")
    child = subprocess.run(
        [sys.executable, "-c", "import sys; from test_lorentz import exp_grid; "
                               "sys.stdout.buffer.write(exp_grid().tobytes())"],
        cwd=Path(__file__).parent, capture_output=True, timeout=60,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)})
    assert child.returncode == 0, child.stderr
    assert child.stdout == exp_grid().tobytes()


# ---------------------------------------------------------------------------
# vector action and SO(3,C) matrices


def test_act_vector_identity():
    rng = np.random.default_rng(1)
    v = rand_cvec(rng)
    assert np.max(np.abs(lo.act_vector(lo.identity(), v) - v)) == 0.0


def test_act_vector_real_rotation_matches_entry_map():
    # for a real element the action matrix is the displayed entry map itself
    a = 0.4
    L = lo.exp(a, (0, 0, 1))
    v = np.array([1.0, 0.0, 0.0], complex)
    got = lo.act_vector(L, v)
    want = lo.so3c_entries(L) @ v
    assert np.max(np.abs(got - want)) <= 1e-14
    # and the (1,1) entry is cos(2a)
    assert abs(lo.so3c_matrix(L)[0, 0] - np.cos(2 * a)) <= 1e-14


def test_entry_map_fixes_own_vector_part():
    rng = np.random.default_rng(2)
    for _ in range(200):
        q = rand_unit_element(rng)
        o = lo.so3c_entries(q)
        defect = np.abs(o @ q[1:] - q[1:])
        assert np.max(defect) <= 1e-12 * max(1.0, lo.abs2(q))


def test_act_vector_fixes_conjugated_vector_part():
    # the action of L fixes the componentwise conjugate of L's vector part
    rng = np.random.default_rng(3)
    for _ in range(100):
        L = rand_unit_element(rng)
        lam = rng.normal() + 1j * rng.normal()
        v = lam * np.conj(L[1:])
        assert np.max(np.abs(lo.act_vector(L, v) - v)) <= 1e-12 * max(
            1.0, lo.abs2(L) * np.max(np.abs(v))
        )


def test_so3c_matrix_matches_act_vector():
    rng = np.random.default_rng(4)
    L = rand_unit_element(rng)
    o = lo.so3c_matrix(L)
    for _ in range(100):
        v = rand_cvec(rng)
        assert np.max(np.abs(o @ v - lo.act_vector(L, v))) <= 1e-12 * max(
            1.0, lo.abs2(L) * np.max(np.abs(v))
        )


def test_so3c_orthogonal_unit_det():
    rng = np.random.default_rng(5)
    for _ in range(100):
        o = lo.so3c_matrix(rand_unit_element(rng))
        scale = max(1.0, float(np.max(np.abs(o)) ** 2))
        assert np.max(np.abs(o.T @ o - np.eye(3))) <= 1e-12 * scale
        assert abs(np.linalg.det(o) - 1.0) <= 1e-12 * scale ** 1.5


def test_so3c_even_in_element():
    rng = np.random.default_rng(6)
    L = rand_unit_element(rng)
    assert np.array_equal(lo.so3c_matrix(L), lo.so3c_matrix(-L))


def test_so3c_homomorphism_under_compose():
    rng = np.random.default_rng(7)
    for _ in range(50):
        L1, L2 = rand_unit_element(rng), rand_unit_element(rng)
        lhs = lo.so3c_matrix(alg.mul(L1, L2))
        rhs = lo.so3c_matrix(L1) @ lo.so3c_matrix(L2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_act_vector_preserves_bilinear_square():
    rng = np.random.default_rng(8)
    for _ in range(100):
        L = rand_unit_element(rng)
        v = rand_cvec(rng)
        w = lo.act_vector(L, v)
        assert abs(w @ w - v @ v) <= 1e-12 * max(1.0, abs(v @ v)) * max(1.0, lo.abs2(L) ** 2)


# ---------------------------------------------------------------------------
# four-vector action and 4x4 matrices


def test_act_four_vector_identity():
    a0, a = lo.act_four_vector(lo.identity(), 1.5, (0.1, -0.2, 0.3))
    assert a0 == 1.5
    assert np.allclose(a, [0.1, -0.2, 0.3], atol=0)


def test_rotation_fixes_time():
    rng = np.random.default_rng(9)
    for _ in range(20):
        L = rand_rotation(rng)
        a0, _ = lo.act_four_vector(L, 0.7, rng.normal(size=3))
        assert abs(a0 - 0.7) <= 1e-13


def test_four_vector_columns_match_matrix():
    rng = np.random.default_rng(10)
    L = rand_unit_element(rng)
    m = lo.lorentz_matrix4(L)
    for mu, (a0, a) in enumerate(
        [(1.0, (0, 0, 0)), (0.0, (1, 0, 0)), (0.0, (0, 1, 0)), (0.0, (0, 0, 1))]
    ):
        b0, b = lo.act_four_vector(L, a0, a)
        assert abs(m[0, mu] - b0) == 0.0
        assert np.array_equal(m[1:, mu], b)


def test_lorentz_matrix4_identity():
    assert np.array_equal(lo.lorentz_matrix4(lo.identity()), np.eye(4))


def test_boost_matrix_top_entry():
    b = 0.45
    m = lo.lorentz_matrix4(lo.exp(1j * b, (0, 0, 1)))
    assert abs(m[0, 0] - np.cosh(2 * b)) <= 1e-13
    assert np.max(np.abs(m - m.T)) == 0.0  # boosts are symmetric


def test_matrix4_metric_det_orthochronous():
    rng = np.random.default_rng(11)
    for _ in range(100):
        L = rand_unit_element(rng)
        m = lo.lorentz_matrix4(L)
        scale = max(1.0, float(np.max(np.abs(m)) ** 2))
        assert np.max(np.abs(m.T @ lo.ETA @ m - lo.ETA)) <= 1e-12 * scale
        assert abs(np.linalg.det(m) - 1.0) <= 1e-11 * scale ** 2
        assert m[0, 0] >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# products / factorize


def test_compose_with_identity_and_inverse():
    rng = np.random.default_rng(12)
    L = rand_unit_element(rng)
    assert np.max(np.abs(alg.mul(L, lo.identity()) - L)) <= 1e-15
    back = alg.mul(L, alg.conj_quat(L))
    sign = 1.0 if abs(back[0] - 1.0) < abs(back[0] + 1.0) else -1.0
    assert np.max(np.abs(back - sign * lo.identity())) <= 1e-13


def test_factorize_pure_rotation():
    L = lo.exp(0.7, (0.6, 0.8, 0.0))
    rot, bst = lo.factorize(L)
    assert np.max(np.abs(rot - L)) <= 1e-14
    assert np.max(np.abs(bst - lo.identity())) <= 1e-14


def test_factorize_pure_boost():
    L = lo.exp(0.6j, (0.0, 1.0, 0.0))
    rot, bst = lo.factorize(L)
    assert np.max(np.abs(bst - L)) <= 1e-14
    assert np.max(np.abs(rot - lo.identity())) <= 1e-14


def test_factorize_recomposition_and_structure():
    rng = np.random.default_rng(13)
    for _ in range(100):
        L = rand_unit_element(rng)
        rot, bst = lo.factorize(L)
        assert np.max(np.abs(alg.mul(rot, bst) - L)) <= 1e-12 * max(1.0, lo.abs2(L))
        # rotation: real components, orthogonal spatial matrix, trivial time row
        assert np.max(np.abs(rot.imag)) == 0.0
        m = lo.lorentz_matrix4(rot)
        assert np.max(np.abs(m[0] - [1, 0, 0, 0])) <= 1e-12
        assert np.max(np.abs(m[1:, 1:].T @ m[1:, 1:] - np.eye(3))) <= 1e-12
        # boost: real scalar, imaginary vector, symmetric matrix
        assert bst[0].imag == 0.0
        assert np.max(np.abs(bst[1:].real)) == 0.0
        mb = lo.lorentz_matrix4(bst)
        assert np.max(np.abs(mb - mb.T)) <= 1e-11 * max(1.0, np.max(np.abs(mb)))


def test_factorize_unit_factors():
    rng = np.random.default_rng(14)
    L = rand_unit_element(rng)
    rot, bst = lo.factorize(L)
    assert abs(alg.norm(rot) - 1.0) <= 1e-12
    assert abs(alg.norm(bst) - 1.0) <= 1e-12


def test_unchecked_identities_hold_for_non_unit_elements():
    """The identities ``act_vector``, ``act_four_vector`` and ``factorize``
    rely on unchecked hold for arbitrary elements, up to rounding."""
    rng = np.random.default_rng(16)
    n = 2000
    u = np.finfo(float).eps / 2
    L = (rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    size = lo.abs2(L)
    # the scalar part of the vector sandwich vanishes
    v = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))) * 10.0 ** rng.uniform(-6, 6, (n, 1))
    c = alg.conj_components(L)
    r = alg.mul(alg.mul(c, alg.from_vector(v)), alg.conj_quat(c))
    assert np.all(np.abs(r[:, 0]) <= 16 * u * size * np.max(np.abs(v), axis=-1))
    # a real four-vector comes back real
    a0 = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6, n)
    a = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-6, 6, (n, 1))
    r = alg.mul(alg.mul(c, alg.quat(-1j * a0, a.astype(complex))), alg.conj_quat(L))
    bound = 16 * u * size * np.maximum(np.abs(a0), np.max(np.abs(a), axis=-1))
    assert np.all(np.abs(r[:, 0].real) <= bound)
    assert np.all(np.max(np.abs(r[:, 1:].imag), axis=-1) <= bound)
    for i in range(0, n, 100):
        b0, b = lo.act_four_vector(L[i], a0[i], a[i])
        assert b0 == float((1j * r[i, 0]).real) and np.array_equal(b, r[i, 1:].real)
    # the polar split's boost norm is at least one
    nb = alg.norm(alg.mul(alg.conj_complex(L), L) + lo.identity())
    assert np.all(nb.real >= 1.0)
    assert np.all(np.abs(nb.imag) <= 16 * u * (1.0 + size) ** 2)


def test_factorize_of_non_unit_element_does_not_recompose():
    """Negative control for the report's ``factorization`` row: the factors
    of a non-unit element multiply back to something far from it."""
    L = 1j * lo.exp(0.3, (0, 0, 1))
    rot, bst = lo.factorize(L)
    assert np.max(alg.cabs(alg.mul(rot, bst) - L)) >= 0.5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [1e8, 1e9, 1e12])
def test_factorize_large_isotropic_elements(size):
    """With |theta| = |epsilon| = size, the bilinear norm of
    ``conj_complex(L)·L + 1`` cancels to 0 for some L = 1 + phi; the boost's
    divisor, from that element's scalar part, does not."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        phi = nc.phi_from_k(rand_isotropic_k(rng, (size, size)))
        rot, bst = lo.factorize(alg.quat(1.0, phi))
        assert np.all(np.isfinite(rot)) and np.all(np.isfinite(bst))


def test_element_from_rotation_matrix_roundtrip():
    rng = np.random.default_rng(15)
    for _ in range(50):
        q = rand_rotation(rng)
        r = lo.so3c_entries(q).real
        q2 = lo.element_from_rotation_matrix(r)
        sign = 1.0 if np.abs(q2 - q).max() < np.abs(q2 + q).max() else -1.0
        assert np.max(np.abs(sign * q2 - q)) <= 1e-12


def shepperd_four_branches(r):
    """Shepperd's method with one hand-permuted branch per diagonal entry,
    and the branch it took: 0 for the trace, 1 + i for diagonal entry i."""
    t = np.trace(r)
    if t > 0:
        w = 0.5 * np.sqrt(1.0 + t)
        x = (r[2, 1] - r[1, 2]) / (4.0 * w)
        y = (r[0, 2] - r[2, 0]) / (4.0 * w)
        z = (r[1, 0] - r[0, 1]) / (4.0 * w)
        return alg.quat(w, (x, y, z)), 0
    i = int(np.argmax(np.diag(r)))
    if i == 0:
        s = 2.0 * np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        w = (r[2, 1] - r[1, 2]) / s
        x = 0.25 * s
        y = (r[0, 1] + r[1, 0]) / s
        z = (r[0, 2] + r[2, 0]) / s
    elif i == 1:
        s = 2.0 * np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2])
        w = (r[0, 2] - r[2, 0]) / s
        x = (r[0, 1] + r[1, 0]) / s
        y = 0.25 * s
        z = (r[1, 2] + r[2, 1]) / s
    else:
        s = 2.0 * np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2])
        w = (r[1, 0] - r[0, 1]) / s
        x = (r[0, 2] + r[2, 0]) / s
        y = (r[1, 2] + r[2, 1]) / s
        z = 0.25 * s
    return alg.quat(w, (x, y, z)), 1 + i


def test_element_from_rotation_matrix_matches_four_branch_reference():
    # one diagonal branch for the largest entry gives the bits of three
    # hand-permuted ones
    rng = np.random.default_rng(25)
    matrices = [lo.so3c_entries(rand_rotation(rng)).real for _ in range(2000)]
    # half-turns about each axis, and one whose two largest diagonal entries
    # tie: the half-turn about (1, 1, 0)/sqrt(2)
    matrices += [np.diag(d) for d in ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0])]
    matrices.append(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]))
    runs = np.zeros(4, int)
    for r in matrices:
        want, branch = shepperd_four_branches(r)
        runs[branch] += 1
        assert lo.element_from_rotation_matrix(r).tobytes() == want.tobytes()
    assert np.all(runs >= 100), runs
