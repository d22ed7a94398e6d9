"""Biquaternion arithmetic against an independent structure-constant oracle."""

import ast
from pathlib import Path

import numpy as np

from nced import algebra as alg
from conftest import rand_unit_element

# ---------------------------------------------------------------------------
# oracle: expand the product over the basis {e0, e1, e2, e3} using only the
# multiplication table e_a e_b = -delta_ab e0 + eps_abc e_c

_EPS = np.zeros((3, 3, 3))
for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS[i, j, k] = 1.0
    _EPS[j, i, k] = -1.0

# _TABLE[a, b, c] = coefficient of e_c in e_a e_b, indices 0..3
_TABLE = np.zeros((4, 4, 4))
_TABLE[0, 0, 0] = 1.0
for a in range(1, 4):
    _TABLE[0, a, a] = 1.0
    _TABLE[a, 0, a] = 1.0
    for b in range(1, 4):
        _TABLE[a, b, 0] -= 1.0 if a == b else 0.0
        for c in range(1, 4):
            _TABLE[a, b, c] += _EPS[a - 1, b - 1, c - 1]


def mul_oracle(q, p):
    out = np.zeros(4, complex)
    for a in range(4):
        for b in range(4):
            out += q[a] * p[b] * _TABLE[a, b]
    return out


def rand_quat(rng, scale=1.0):
    return scale * (rng.normal(size=4) + 1j * rng.normal(size=4))


# ---------------------------------------------------------------------------


def test_basis_product():
    assert np.allclose(alg.mul(alg.E1, alg.E2), alg.E3, atol=0)
    assert np.allclose(alg.mul(alg.E2, alg.E1), -alg.E3, atol=0)
    assert np.allclose(alg.mul(alg.E1, alg.E1), -alg.quat(1.0), atol=0)


def test_identity_element():
    rng = np.random.default_rng(0)
    q = rand_quat(rng)
    assert np.array_equal(alg.mul(alg.quat(1.0), q), q)
    assert np.array_equal(alg.mul(q, alg.quat(1.0)), q)


def test_mul_against_structure_constant_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        q, p = rand_quat(rng), rand_quat(rng)
        got = alg.mul(q, p)
        want = mul_oracle(q, p)
        worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert worst <= 1e-13


def test_conj_quat_basics():
    assert np.array_equal(alg.conj_quat(alg.quat(1.0)), alg.quat(1.0))
    assert np.array_equal(alg.conj_quat(alg.E1), -alg.E1)


def test_conj_quat_antihomomorphism():
    rng = np.random.default_rng(2)
    for _ in range(100):
        q, p = rand_quat(rng), rand_quat(rng)
        lhs = alg.conj_quat(alg.mul(q, p))
        rhs = alg.mul(alg.conj_quat(p), alg.conj_quat(q))
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(lhs))


def test_conj_complex_on_real_components():
    rng = np.random.default_rng(3)
    q = rng.normal(size=4).astype(np.complex128)
    assert np.array_equal(alg.conj_complex(q), alg.conj_quat(q))


def test_conj_complex_on_imaginary_vector():
    # conjugation flips i, vector negation flips the sign back
    q = alg.quat(0.0, (1j, 0, 0))
    assert np.array_equal(alg.conj_complex(q), q)


def test_conj_complex_involution():
    rng = np.random.default_rng(4)
    for _ in range(100):
        q = rand_quat(rng)
        assert np.array_equal(alg.conj_complex(alg.conj_complex(q)), q)


def test_conj_complex_is_star_antihomomorphism():
    rng = np.random.default_rng(5)
    q, p = rand_quat(rng), rand_quat(rng)
    lhs = alg.conj_complex(alg.mul(q, p))
    rhs = alg.mul(alg.conj_complex(p), alg.conj_complex(q))
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(lhs))


def test_norm_examples():
    assert alg.norm(alg.quat(1.0)) == 1.0
    iso = alg.quat(0.0, (1.0, 1.0j, 0.0))
    assert alg.norm(iso) == 0.0


def test_norm_equals_q_qbar():
    rng = np.random.default_rng(6)
    for _ in range(100):
        q = rand_quat(rng)
        prod = alg.mul(q, alg.conj_quat(q))
        assert abs(prod[0] - alg.norm(q)) <= 1e-14 * abs(prod[0])
        assert np.max(np.abs(prod[1:])) <= 1e-14 * np.max(np.abs(q)) ** 2


def test_norm_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q, p = rand_quat(rng), rand_quat(rng)
        lhs = alg.norm(alg.mul(q, p))
        rhs = alg.norm(q) * alg.norm(p)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_associativity():
    rng = np.random.default_rng(8)
    for _ in range(200):
        q, p, r = rand_quat(rng), rand_quat(rng), rand_quat(rng)
        lhs = alg.mul(alg.mul(q, p), r)
        rhs = alg.mul(q, alg.mul(p, r))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))


def test_sym_scalar_examples():
    e1 = alg.from_vector((1.0, 0, 0))
    e2 = alg.from_vector((0, 1.0, 0))
    assert alg.mul(e1, e1)[0] == -1.0 and -alg.cdot(e1[1:], e1[1:]) == -1.0
    assert alg.mul(e1, e2)[0] == 0.0 and -alg.cdot(e1[1:], e2[1:]) == 0.0


def test_sym_scalar_is_scalar_part_of_vector_product():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        via_mul = alg.mul(alg.from_vector(a), alg.from_vector(b))[0]
        assert abs(-alg.cdot(a, b) - via_mul) <= 1e-14 * max(1.0, abs(via_mul))
        assert alg.cdot(a, b) == alg.cdot(b, a)


def test_scalar_part_similarity_invariant():
    rng = np.random.default_rng(10)
    for _ in range(100):
        L = rand_unit_element(rng)
        q = rand_quat(rng)
        conj = alg.mul(alg.mul(L, q), alg.conj_quat(L))
        assert abs(conj[0] - q[0]) <= 1e-13 * max(
            1.0, abs(q[0])
        ) * max(1.0, float(np.sum(np.abs(L) ** 2)))


def test_parts_roundtrip():
    q = alg.quat(2.0 + 1j, (1, 2, 3))
    assert q[0] == 2.0 + 1j
    assert np.array_equal(q[1:], np.array([1, 2, 3], complex))
    # a batch keeps its components on the last axis
    b = alg.quat((2.0 + 1j, -1.0), ((1, 2, 3), (4, 5, 6)))
    assert b.shape == (2, 4)
    assert np.array_equal(b[..., 0], np.array([2.0 + 1j, -1.0]))
    assert np.array_equal(b[..., 1:], np.array([[1, 2, 3], [4, 5, 6]], complex))


# numpy routes these to BLAS kernels that OpenBLAS picks per CPU, outside the
# rounding rule of the module docstring
BLAS_ROUTES = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg"}


def test_package_makes_no_blas_call():
    found = []
    for path in sorted(Path(alg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_ROUTES:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names} | set((node.module or "").split("."))
                found += [f"{path.name}:{node.lineno}: import {n}" for n in names & BLAS_ROUTES]
    assert not found, found
