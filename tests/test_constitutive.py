"""Constitutive maps: vector vs quaternionic route, first-order inversion,
covariance, and the analyzer's covariance design: the identity it rests on,
proved with sympy, and the corruptions it rejects."""

from contextlib import contextmanager
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nced import algebra as alg
from nced import cli
from nced import constitutive as ct
from nced import lorentz as lo
from nced import noncomm as nc
from nced.algebra import cdot
from conftest import rand_unit_element

GOLDEN = Path(__file__).parent / "data" / "golden"

# ---------------------------------------------------------------------------
# independent oracle: a fresh transcription of the forward map, written
# against the displayed term list rather than sharing code with the library;
# its dots are summed in the library's order, (a0 b0 + a1 b1) + a2 b2


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def forward_oracle(E, B, eps, th):
    E, B, eps, th = map(np.asarray, (E, B, eps, th))
    br1 = dot(eps, E) - dot(th, B)
    br2 = dot(th, E) + dot(eps, B)
    D = E + br1 * E + br2 * B + dot(E, B) * th + 0.5 * (dot(E, E) - dot(B, B)) * eps
    H = B + br1 * B - br2 * E - dot(E, B) * eps + 0.5 * (dot(E, E) - dot(B, B)) * th
    return D, H


def rand_state(rng):
    return (
        rng.uniform(-1, 1, 3),
        rng.uniform(-1, 1, 3),
        nc.ThetaVectors(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)),
    )


def test_hand_example():
    E = np.array([1.0, 0, 0])
    B = np.array([1.0, 0, 0])
    tv = nc.ThetaVectors(np.zeros(3), np.array([0.1, 0, 0]))
    D, H = ct.forward(E, B, tv)
    assert np.max(np.abs(D - [1.1, 0, 0])) <= 1e-15
    assert np.max(np.abs(H - [0.8, 0, 0])) <= 1e-15
    Do, Ho = forward_oracle(E, B, tv.epsilon, tv.theta)
    assert np.array_equal(D, Do) and np.array_equal(H, Ho)


def test_forward_identity_at_zero_parameters():
    rng = np.random.default_rng(0)
    E, B = rng.normal(size=3), rng.normal(size=3)
    D, H = ct.forward(E, B, nc.ThetaVectors(np.zeros(3), np.zeros(3)))
    assert np.array_equal(D, E) and np.array_equal(H, B)


def test_forward_matches_oracle_randomly():
    rng = np.random.default_rng(1)
    for _ in range(300):
        E, B, tv = rand_state(rng)
        D, H = ct.forward(E, B, tv)
        Do, Ho = forward_oracle(E, B, tv.epsilon, tv.theta)
        assert np.max(np.abs(D - Do)) == 0.0
        assert np.max(np.abs(H - Ho)) == 0.0


def test_corrections_linear_in_parameters():
    rng = np.random.default_rng(2)
    E, B, tv = rand_state(rng)
    D1, H1 = ct.forward(E, B, tv)
    lam = 0.37
    tv2 = nc.ThetaVectors(lam * tv.epsilon, lam * tv.theta)
    D2, H2 = ct.forward(E, B, tv2)
    assert np.max(np.abs((D2 - E) - lam * (D1 - E))) <= 1e-14
    assert np.max(np.abs((H2 - B) - lam * (H1 - B))) <= 1e-14


def test_degree_two_in_fields():
    # D - E is jointly quadratic in (E, B): scaling both by s scales it by s^2
    rng = np.random.default_rng(3)
    E, B, tv = rand_state(rng)
    D1, H1 = ct.forward(E, B, tv)
    s = 1.9
    D2, H2 = ct.forward(s * E, s * B, tv)
    assert np.max(np.abs((D2 - s * E) - s**2 * (D1 - E))) <= 1e-12
    assert np.max(np.abs((H2 - s * B) - s**2 * (H1 - B))) <= 1e-12


def test_inverse_identity_at_zero_parameters():
    rng = np.random.default_rng(4)
    D, H = rng.normal(size=3), rng.normal(size=3)
    E, B = ct.inverse(D, H, nc.ThetaVectors(np.zeros(3), np.zeros(3)))
    assert np.array_equal(E, D) and np.array_equal(B, H)


def test_inverse_of_hand_example():
    tv = nc.ThetaVectors(np.zeros(3), np.array([0.1, 0, 0]))
    E, B = ct.inverse(np.array([1.1, 0, 0]), np.array([0.8, 0, 0]), tv)
    assert np.max(np.abs(E - [1, 0, 0])) <= 2e-2
    assert np.max(np.abs(B - [1, 0, 0])) <= 5e-2


def test_inverse_forward_slope_two():
    rng = np.random.default_rng(5)
    E, B, tv = rand_state(rng)
    lams = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    resid = []
    for lam in lams:
        tvl = nc.ThetaVectors(lam * tv.epsilon, lam * tv.theta)
        D, H = ct.forward(E, B, tvl)
        E2, B2 = ct.inverse(D, H, tvl)
        resid.append(max(np.max(np.abs(E2 - E)), np.max(np.abs(B2 - B))))
    slope = np.polyfit(np.log(lams), np.log(resid), 1)[0]
    assert abs(slope - 2.0) <= 0.05


def test_quaternionic_zero_parameter():
    rng = np.random.default_rng(6)
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.array_equal(ct.h_from_f(f, np.zeros(3, complex)), f)
    assert np.array_equal(ct.f_from_h(f, np.zeros(3, complex)), f)


def test_cross_form_equivalence():
    """Vector and quaternionic routes agree to rounding; this also pins the
    sign of the scalar-part bracket (+a.b, the negated scalar part of the
    vector product)."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        E, B, tv = rand_state(rng)
        k = nc.k_from_vectors(tv)
        D, H = ct.forward(E, B, tv)
        D2, H2 = ct.dh_from_h(ct.h_from_f(ct.f_vector(E, B), k))
        worst = max(worst, np.max(np.abs(D2 - D)), np.max(np.abs(H2 - H)))
    assert worst <= 1e-13


def test_quaternionic_bracket_is_negated_sym_scalar():
    rng = np.random.default_rng(8)
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    k = rng.normal(size=3) + 1j * rng.normal(size=3)
    got = ct.h_from_f(f, k)
    s_fk = cdot(np.conj(f), np.conj(k))
    s_ff = cdot(np.conj(f), np.conj(f))
    want = f - s_fk * f - 0.5 * s_ff * k
    assert np.max(np.abs(got - want)) <= 1e-14


def test_inverse_route_equivalence():
    rng = np.random.default_rng(9)
    for _ in range(200):
        E, B, tv = rand_state(rng)
        k = nc.k_from_vectors(tv)
        D, H = ct.forward(E, B, tv)
        Ev, Bv = ct.inverse(D, H, tv)
        Eq, Bq = ct.eb_from_f(ct.f_from_h(ct.h_vector(D, H), k))
        assert np.max(np.abs(Ev - Eq)) <= 1e-13
        assert np.max(np.abs(Bv - Bq)) <= 1e-13


def test_double_application_slope_two():
    rng = np.random.default_rng(10)
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    k0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    lams = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    resid = []
    for lam in lams:
        k = lam * k0
        h = ct.h_from_f(f, k)
        back = ct.f_from_h(h, k)
        resid.append(np.max(np.abs(back - f)))
    slope = np.polyfit(np.log(lams), np.log(resid), 1)[0]
    assert abs(slope - 2.0) <= 0.05


def test_transport_check_identity():
    rng = np.random.default_rng(11)
    E, B, tv = rand_state(rng)
    assert ct.covariant_transport_check(nc.k_from_vectors(tv), lo.identity(), E, B) == 0.0


def test_transport_check_full_group():
    rng = np.random.default_rng(12)
    for _ in range(100):
        E, B, tv = rand_state(rng)
        L = rand_unit_element(rng)
        assert ct.covariant_transport_check(nc.k_from_vectors(tv), L, E, B) <= 1e-12 * max(
            1.0, lo.abs2(L) ** 3
        )


def test_fixed_medium_breaks_generic_covariance():
    E = np.array([1.0, 0, 0])
    B = np.array([0, 1.0, 0])
    tv = nc.ThetaVectors(np.array([0.2, 0, 0]), np.array([0, 0, 0.3]))
    k = nc.k_from_vectors(tv)
    L = lo.exp(0.4j, (1.0, 0, 0))
    f = ct.f_vector(E, B)
    h = ct.h_from_f(f, k)
    fp = lo.act_vector(L, f)
    hp = lo.act_vector(L, h)
    resid = np.max(np.abs(ct.h_from_f(fp, k) - hp))
    assert resid > 1e-4


def test_field_combination_roundtrip():
    rng = np.random.default_rng(13)
    E, B = rng.normal(size=3), rng.normal(size=3)
    E2, B2 = ct.eb_from_f(ct.f_vector(E, B))
    assert np.array_equal(E2, E) and np.array_equal(B2, B)
    D, H = rng.normal(size=3), rng.normal(size=3)
    D2, H2 = ct.dh_from_h(ct.h_vector(D, H))
    assert np.array_equal(D2, D) and np.array_equal(H2, H)


def test_so3c_entries_preserve_every_bilinear_dot_of_a_unit_element():
    """For a symbolic q, OᵀO − I lies in the ideal of norm(q) − 1, so every
    unit element preserves f·K and f·f, and with them the conjugated dots
    that h_from_f forms; h_from_f(Of, OK) = O·h_from_f(f, K) then holds
    exactly, and covariant_transport_check is rounding only."""
    sympy = pytest.importorskip("sympy")
    q = sympy.symbols("q0:4")
    unit = sum(x * x for x in q) - 1
    o = sympy.Matrix(lo.so3c_entries(np.array(q, dtype=object)))
    f, k = sympy.Matrix(sympy.symbols("f0:3")), sympy.Matrix(sympy.symbols("k0:3"))
    defects = [*(o.T * o - sympy.eye(3)),
               ((o * f).T * (o * k) - f.T * k)[0], ((o * f).T * (o * f) - f.T * f)[0]]
    for defect in defects:
        _, rest = sympy.reduced(sympy.expand(defect), [unit], *q)
        assert rest == 0
    # the ideal is needed: off the unit quadric O is not orthogonal
    assert sympy.expand((o.T * o)[0, 0] - 1) != 0


@contextmanager
def hermitian_dot(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(ct, "cdot", lambda a, b: alg.cdot(np.conj(a), b))
        yield


@contextmanager
def transported_h_scaled(monkeypatch):
    # act_vector acts on f, K and h in that order: scale every third result
    calls = count(1)

    def act_vector(L, v):
        out = lo.act_vector(L, v)
        return out * (1 + 1e-6) if next(calls) % 3 == 0 else out

    with monkeypatch.context() as m:
        m.setattr(ct, "lorentz", SimpleNamespace(act_vector=act_vector))
        yield


@pytest.mark.parametrize("corrupt", [hermitian_dot, transported_h_scaled])
@pytest.mark.parametrize("kind", ["nonisotropic", "isotropic"])
def test_covariance_design_rejects_a_corrupted_map(kind, corrupt, monkeypatch, tmp_path):
    """Each corruption, confined to the covariance section, fails
    full_covariance and only it, and the run exits 1."""
    check = cli._covariance_check

    def corrupted(k):
        with corrupt(monkeypatch):
            return check(k)

    monkeypatch.setattr(cli, "_covariance_check", corrupted)
    inp = GOLDEN / f"{kind}.yaml"
    report = cli.analyze(cli.load_input(inp), inp, scan_n=360, trials=100, seed=42)
    assert [name for name, ok in report["checks"].items() if not ok] == ["full_covariance"]
    assert report["status"] == "fail"
    assert cli.main(["analyze", "--input", str(inp), "--report", str(tmp_path / "r.yaml")]) == 1


def test_rotations_alone_cannot_see_a_hermitian_dot(monkeypatch):
    """Why the design needs boosts: a real rotation preserves the Hermitian
    dot too, so the corrupted map passes every rotation of the design."""
    k = ct.f_vector((0.3, -1.0, 0.5), (1.0, 0.2, 2.0))
    rot = lo.exp(0.7, np.eye(3))
    E, B = np.eye(3), np.roll(np.eye(3), 1, axis=1)
    with hermitian_dot(monkeypatch):
        assert np.max(ct.covariant_transport_check(k, rot[:, None], E, B)) <= 1e-14
        assert cli._covariance_check(k) > 1.0
