"""Batch-first kernels against a per-row reference, bit for bit.

The references below are the scalar forms of the kernels: one element at a
time, every component product a product of numpy scalars, in the kernels'
order of operations.  numpy forms a scalar complex product as
``ar*br - ai*bi`` with two roundings, the rule ``algebra._cmul`` keeps for
arrays, and never fuses it into FMA as its array multiply may.  A batched
kernel must return, for every row of a batch and for a single input, exactly
the bits its reference returns.
"""

import random

import numpy as np
import pytest

import nced
from nced import algebra as alg
from nced import cli
from nced import constitutive as ct
from nced import duality as du
from nced import lorentz
from nced import noncomm as nc
from nced import smallgroup as sg

from conftest import group_law, rand_isotropic_k, rand_nonisotropic_k, rand_unit_element


# ---------------------------------------------------------------------------
# per-row references

def ref_cdot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def ref_ccross(a, b):
    out = np.empty(3, np.complex128)
    out[0] = a[1] * b[2] - a[2] * b[1]
    out[1] = a[2] * b[0] - a[0] * b[2]
    out[2] = a[0] * b[1] - a[1] * b[0]
    return out


def ref_mul(q, p):
    out = np.empty(4, np.complex128)
    out[0] = q[0] * p[0] - (q[1] * p[1] + q[2] * p[2] + q[3] * p[3])
    out[1] = q[0] * p[1] + p[0] * q[1] + (q[2] * p[3] - q[3] * p[2])
    out[2] = q[0] * p[2] + p[0] * q[2] + (q[3] * p[1] - q[1] * p[3])
    out[3] = q[0] * p[3] + p[0] * q[3] + (q[1] * p[2] - q[2] * p[1])
    return out


def ref_conj_quat(q):
    out = np.empty(4, np.complex128)
    out[0] = q[0]
    out[1:] = [-q[1], -q[2], -q[3]]
    return out


def ref_conj_complex(q):
    out = np.empty(4, np.complex128)
    out[0] = q[0].conjugate()
    out[1:] = [-q[1].conjugate(), -q[2].conjugate(), -q[3].conjugate()]
    return out


def ref_conj_components(q):
    out = np.empty(4, np.complex128)
    out[:] = [q[0].conjugate(), q[1].conjugate(), q[2].conjugate(), q[3].conjugate()]
    return out


def ref_norm(q):
    return q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]


def ref_correction(x, k):
    s_xk = ref_cdot(x, k).conjugate()
    s_xx = 0.5 * ref_cdot(x, x).conjugate()
    out = np.empty(3, np.complex128)
    out[:] = [s_xk * x[j] + s_xx * k[j] for j in range(3)]
    return out


def ref_h_from_f(f, k):
    return f - ref_correction(f, k)


def ref_f_from_h(h, k):
    return h + ref_correction(h, k)


def ref_act_vector(L, v):
    v = np.asarray(v, np.complex128)
    n = ref_conj_components(L)
    vq = np.zeros(4, np.complex128)
    vq[1:] = v
    r = ref_mul(ref_mul(n, vq), ref_conj_quat(n))
    return r[1:4]


def ref_exp(w, axis):
    w = np.complex128(w)
    axis = np.asarray(axis, np.complex128)
    x = w * np.sqrt(ref_cdot(axis, axis))
    sinc = np.sin(x) / x if x != 0 else 1.0
    q = np.empty(4, np.complex128)
    q[0] = np.cos(x)
    q[1:] = [w * sinc * c for c in axis]
    return q


def ref_act_four_vector(L, a0, a):
    A = np.empty(4, np.complex128)
    A[0] = -1j * a0
    A[1:] = a
    r = ref_mul(ref_mul(ref_conj_components(L), A), ref_conj_quat(L))
    return (1j * r[0]).real, r[1:4].real


def ref_element(d, p, sign=1):
    return sign * ref_exp(p, d.phi)


def ref_max_abs(v):
    """Largest modulus of a row's components, each the ``abs`` of a numpy
    scalar, which is ``hypot``'s."""
    return float(np.max([abs(z) for z in v]))


def ref_stabilizes(L, k):
    return ref_max_abs(ref_act_vector(L, k) - k)


def ref_invariance(k, L, E, B):
    f = ct.f_vector(E, B)
    h = ref_h_from_f(f, k)
    fp = ref_act_vector(L, f)
    hp = ref_act_vector(L, h)
    return ref_max_abs(ref_h_from_f(fp, k) - hp)


def ref_covariance(E, B, k, L):
    f = ct.f_vector(E, B)
    h = ref_h_from_f(f, k)
    fp, kp, hp = ref_act_vector(L, f), ref_act_vector(L, k), ref_act_vector(L, h)
    return ref_max_abs(ref_h_from_f(fp, kp) - hp)


def ref_gr_residual(G, R, K):
    f = np.array([0.5 * (G[j] + R[j]) for j in range(3)])
    h = np.array([0.5 * (G[j] - R[j]) for j in range(3)])
    # h - h_from_f(f, K) and f - f_from_h(h, K), with f - h = R
    c_f, c_h = ref_correction(f, K), ref_correction(h, K)
    d1 = 0.0
    d2 = 0.0
    for j in range(3):
        # a NaN component, once met, stays
        m = abs(c_f[j] - R[j])
        if m > d2 or m != m:
            d2 = m
        m = abs(R[j] - c_h[j])
        if m > d1 or m != m:
            d1 = m
    return d1 if d1 < d2 or d1 != d1 else d2


def ref_dual_rotate(s, k, chi):
    ph = np.exp(1j * float(chi))
    return (du.GRState(np.array([ph * g for g in s.G]),
                       np.array([ph.conjugate() * r for r in s.R])),
            np.array([ph * x for x in k]))


def ref_scan(G, R, K, chis):
    out = np.empty(chis.shape[0], np.float64)
    for i in range(chis.shape[0]):
        rotated, k_rot = ref_dual_rotate(du.GRState(G, R), K, chis[i])
        out[i] = ref_gr_residual(rotated.G, rotated.R, k_rot)
    return out


# ---------------------------------------------------------------------------

def bits(x):
    x = np.atleast_1d(x)
    return x.astype(np.complex128 if np.iscomplexobj(x) else np.float64).view(np.uint64)


def assert_same_bits(batched, rows):
    assert np.array_equal(bits(batched), bits(rows))


def nan_as_nan(z):
    z = np.array(z, np.complex128)
    z.real[np.isnan(z.real)] = np.nan
    z.imag[np.isnan(z.imag)] = np.nan
    return z


def rand_complex(rng, *shape):
    """Components over six decades, with exact zeros, whose signs are where
    a rounding difference in a product shows first."""
    z = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-3, 3, shape)
    z.real[rng.random(shape) < 0.1] = 0.0
    z.imag[rng.random(shape) < 0.1] = 0.0
    return z


N = 400


def test_backend_flag_is_reported():
    assert nced.BACKEND == "numpy"


def test_mul_matches_rowwise_reference():
    rng = np.random.default_rng(0)
    q, p = rand_complex(rng, N, 4), rand_complex(rng, N, 4)
    assert_same_bits(alg.mul(q, p), [ref_mul(a, b) for a, b in zip(q, p)])
    assert_same_bits(alg.mul(q, p[0]), [ref_mul(a, p[0]) for a in q])
    assert_same_bits(alg.mul(q[0], p[0]), ref_mul(q[0], p[0]))
    # leading axes beyond one broadcast too
    assert_same_bits(alg.mul(q.reshape(20, 20, 4), p[:20, None, :]),
                     [[ref_mul(q[20 * i + j], p[i]) for j in range(20)] for i in range(20)])
    # signed zeros, infinities, NaN and overflowing products; which sign bit
    # a NaN gets depends on numpy's loop, so every NaN is compared as np.nan
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 1.5])
    q, p = np.empty((N, 4), np.complex128), np.empty((N, 4), np.complex128)
    for z in (q.real, q.imag, p.real, p.imag):
        z[...] = special[rng.integers(0, len(special), (N, 4))]
    with np.errstate(all="ignore"):
        for got, want in ((alg.mul(q, p), [ref_mul(a, b) for a, b in zip(q, p)]),
                          (alg.mul(q, p[0]), [ref_mul(a, p[0]) for a in q])):
            assert_same_bits(nan_as_nan(got), nan_as_nan(want))


def test_dot_norm_and_conjugations_match_rowwise_reference():
    rng = np.random.default_rng(1)
    q = rand_complex(rng, N, 4)
    a, b = q[:, 1:], rand_complex(rng, N, 3)
    assert_same_bits(alg.cdot(a, b), [ref_cdot(x, y) for x, y in zip(a, b)])
    assert_same_bits(alg.cdot(a[0], b[0]), ref_cdot(a[0], b[0]))
    assert_same_bits(alg.ccross(a, b), [ref_ccross(x, y) for x, y in zip(a, b)])
    assert_same_bits(alg.ccross(a[0], b[0]), ref_ccross(a[0], b[0]))
    assert_same_bits(alg.norm(q), [ref_norm(x) for x in q])
    assert_same_bits(alg.norm(q[0]), ref_norm(q[0]))
    for kernel, ref in ((alg.conj_quat, ref_conj_quat), (alg.conj_complex, ref_conj_complex),
                        (alg.conj_components, ref_conj_components)):
        assert_same_bits(kernel(q), [ref(x) for x in q])
        assert_same_bits(kernel(q[0]), ref(q[0]))


def test_constitutive_kernels_match_rowwise_reference():
    rng = np.random.default_rng(2)
    f, k = rand_complex(rng, N, 3), rand_complex(rng, N, 3)
    for kernel, ref in ((ct.h_from_f, ref_h_from_f), (ct.f_from_h, ref_f_from_h)):
        assert_same_bits(kernel(f, k), [ref(x, y) for x, y in zip(f, k)])
        assert_same_bits(kernel(f, k[0]), [ref(x, k[0]) for x in f])
        assert_same_bits(kernel(f[0], k[0]), ref(f[0], k[0]))


def test_act_vector_matches_rowwise_reference():
    rng = np.random.default_rng(3)
    L = np.array([rand_unit_element(rng, 10.0 ** rng.uniform(-1, 1)) for _ in range(N)])
    v = rand_complex(rng, N, 3)
    assert_same_bits(lorentz.act_vector(L, v), [ref_act_vector(a, b) for a, b in zip(L, v)])
    assert_same_bits(lorentz.act_vector(L, v[0]), [ref_act_vector(a, v[0]) for a in L])
    assert_same_bits(lorentz.act_vector(L[0], v), [ref_act_vector(L[0], b) for b in v])
    assert_same_bits(lorentz.act_vector(L[0], v[0]), ref_act_vector(L[0], v[0]))


def test_exp_and_four_vector_action_match_rowwise_reference():
    rng = np.random.default_rng(4)
    # the lab axes first: the report's fixed designs are built on them; then
    # real and complex axes small enough that cosh(Im x) stays finite, and
    # the zero axis, where sinc(0) = 1
    real = rng.normal(size=(N, 3)) * 10.0 ** rng.uniform(-3, 2, (N, 1))
    axes = np.vstack([np.eye(3), real, rand_complex(rng, N, 3) / 100.0, np.zeros(3)])
    for w in (0.7, -1.3, 1.3j, -0.4j, 0.7 - 1.3j, 0.0):
        assert_same_bits(lorentz.exp(w, axes), [ref_exp(w, a) for a in axes])
        assert_same_bits(lorentz.exp(w, axes[5]), ref_exp(w, axes[5]))
    ws = rng.uniform(-1.4, 1.4, len(axes)) + 1j * rng.uniform(-1.4, 1.4, len(axes))
    ws.real[::3] = 0.0
    ws.imag[1::3] = 0.0
    assert_same_bits(lorentz.exp(ws, axes), [ref_exp(w, a) for w, a in zip(ws, axes)])
    assert_same_bits(lorentz.exp(ws, axes[-2]), [ref_exp(w, axes[-2]) for w in ws])
    L, a0, a = rand_complex(rng, N, 4), rng.normal(size=N), rng.normal(size=(N, 3))
    rows = [ref_act_four_vector(*row) for row in zip(L, a0, a)]
    for got, want in ((lorentz.act_four_vector(L, a0, a), rows),
                      (lorentz.act_four_vector(L[0], a0[0], a[0]), rows[:1])):
        assert_same_bits(got[0], [b0 for b0, _ in want])
        assert_same_bits(np.atleast_2d(got[1]), [b for _, b in want])


@pytest.mark.parametrize("kind", [nc.NONISOTROPIC, nc.ISOTROPIC])
def test_smallgroup_kernels_match_rowwise_reference(kind):
    rng = np.random.default_rng(5)
    # K with exact zero parts, where a difference in rounding shows in signs
    if kind == nc.NONISOTROPIC:
        k = rand_nonisotropic_k(rng)
        k[1] = k[1].real
    else:
        p = np.append(rng.normal(size=2), 0.0)
        k = 1.7 * (p / np.linalg.norm(p) + 1j * np.array([0.0, 0.0, 1.0]))
    d = sg.describe(k)
    assert d.kind == kind
    z = rng.uniform(-1.4, 1.4, (N, 2)) + 1j * rng.uniform(-1.4, 1.4, (N, 2))
    # signed elements, -L being the other sheet of L; an integer sign
    # times 1 + 0j keeps the +0.0 that unary minus would flip
    sign = rng.choice([-1, 1], (N, 2))
    e1 = sign[:, :1] * sg.element(d, z[:, 0])
    e2 = sign[:, 1:] * sg.element(d, z[:, 1])
    ref1 = [ref_element(d, w, sign=int(s)) for w, s in zip(z[:, 0], sign[:, 0])]
    ref2 = [ref_element(d, w, sign=int(s)) for w, s in zip(z[:, 1], sign[:, 1])]
    target = [ref_element(d, complex(a) + complex(b), sign=int(s * t))
              for (a, b), (s, t) in zip(z, sign)]
    # the unsigned defect has the bits of the signed one
    law = group_law(d, z[:, 0], z[:, 1])
    assert_same_bits(-1 * sg.element(d, z[0, 0]), ref_element(d, z[0, 0], sign=-1))
    assert_same_bits(e1, ref1)
    assert_same_bits(e2, ref2)
    assert_same_bits(law, [ref_max_abs(ref_mul(a, b) - t)
                           for a, b, t in zip(ref1, ref2, target)])
    assert_same_bits(sg.stabilizes(e1, k), [ref_stabilizes(L, k) for L in ref1])
    assert_same_bits(sg.stabilizes(e1[0], k), ref_stabilizes(ref1[0], k))

    E, B = rng.uniform(-1, 1, (N, 3)), rng.uniform(-1, 1, (N, 3))
    assert_same_bits(sg.verify_constitutive_invariance(k, e1, E, B),
                     [ref_invariance(k, L, a, b) for L, a, b in zip(ref1, E, B)])
    assert_same_bits(sg.verify_constitutive_invariance(k, e1[0], E[0], B[0]),
                     ref_invariance(k, ref1[0], E[0], B[0]))


def test_covariance_matches_rowwise_reference():
    rng = np.random.default_rng(6)
    k = rand_nonisotropic_k(rng)
    L = np.array([rand_unit_element(rng) for _ in range(N)])
    E, B = rng.uniform(-1, 1, (N, 3)), rng.uniform(-1, 1, (N, 3))
    assert_same_bits(ct.covariant_transport_check(k, L, E, B),
                     [ref_covariance(a, b, k, l) for a, b, l in zip(E, B, L)])
    assert_same_bits(ct.covariant_transport_check(k, L[0], E[0], B[0]),
                     ref_covariance(E[0], B[0], k, L[0]))


def test_gr_residual_matches_rowwise_reference():
    rng = np.random.default_rng(7)
    G, R, K = rand_complex(rng, N, 3), rand_complex(rng, N, 3), rand_complex(rng, N, 3)
    assert_same_bits(du.constitutive_residual_gr(du.GRState(G, R), K),
                     [ref_gr_residual(g, r, k) for g, r, k in zip(G, R, K)])
    assert_same_bits(du.constitutive_residual_gr(du.GRState(G[0], R[0]), K[0]),
                     ref_gr_residual(G[0], R[0], K[0]))
    # a NaN component makes its row NaN; the bits of a NaN may differ
    G[::3, 1] = complex(np.nan, 0.0)
    R[1::3, 2] = complex(0.0, np.nan)
    got = du.constitutive_residual_gr(du.GRState(G, R), K)
    want = np.array([ref_gr_residual(g, r, k) for g, r, k in zip(G, R, K)])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(got).sum() == 2 * N // 3 + 1
    assert_same_bits(got[2::3], want[2::3])


RAND_K = {nc.NONISOTROPIC: rand_nonisotropic_k, nc.ISOTROPIC: rand_isotropic_k,
          nc.ZERO: lambda rng: np.zeros(3, complex)}


@pytest.mark.parametrize("kind", list(RAND_K))
def test_batched_dual_rotation_matches_per_angle_calls(kind):
    rng = np.random.default_rng(10)
    k = RAND_K[kind](rng)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    state = du.state(f, k)
    chis = np.append(np.arange(4) * np.pi / 2.0, rng.uniform(0.0, 2.0 * np.pi, 6))
    rotated, k_rot = du.dual_rotate(state, k, chis)
    rows = [du.dual_rotate(state, k, chi) for chi in chis]
    for batch in (rows, [ref_dual_rotate(state, k, chi) for chi in chis]):
        assert_same_bits(rotated.G, [r.G for r, _ in batch])
        assert_same_bits(rotated.R, [r.R for r, _ in batch])
        assert_same_bits(k_rot, [kr for _, kr in batch])
    residuals = du.constitutive_residual_gr(rotated, k_rot)
    assert residuals.shape == chis.shape
    assert_same_bits(residuals, [du.constitutive_residual_gr(r, kr) for r, kr in rows])
    # a single state still gives a float
    assert isinstance(du.constitutive_residual_gr(*rows[1]), float)


@pytest.mark.parametrize("kind", ["consistent", "zero"])
def test_duality_scan_matches_rowwise_reference(kind):
    rng = np.random.default_rng(8)
    k = np.zeros(3, complex) if kind == "zero" else rand_nonisotropic_k(rng)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    state = du.state(f, k)
    n = 720
    chis, res = du.duality_scan(state, k, n)
    ref_chis = 2.0 * np.pi * np.arange(n) / n
    assert_same_bits(chis, ref_chis)
    assert_same_bits(res, ref_scan(state.G, state.R, k, ref_chis))


@pytest.mark.parametrize("kind", list(RAND_K))
def test_blocked_duality_scan_matches_whole_grid(kind):
    """The scan, taken ``SCAN_BLOCK`` angles at a time, gives the bits of
    ``constitutive_residual_gr`` on the whole grid in one call."""
    rng = np.random.default_rng(9)
    k = RAND_K[kind](rng)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    state = du.state(f, k)
    b = du.SCAN_BLOCK
    for n in (8, b - 1, b, b + 1, 2 * b + 1, 10_000):
        chis, res = du.duality_scan(state, k, n)
        rotated, k_rot = du.dual_rotate(state, k, chis)
        assert_same_bits(res, du.constitutive_residual_gr(rotated, k_rot))


# ---------------------------------------------------------------------------
# the small-group trials against one ``random()`` call per double

def per_draw_trials(n, seed):
    """The trials in their documented layout, drawn one ``random()`` call per
    double: ``n`` group-law rows (p1, p2), then ``n`` invariance rows (p, E, B),
    each parameter its real part first."""
    draw = random.Random(seed).random

    def uniform(lo, hi):
        return lo + (hi - lo) * draw()

    def parameter():
        return complex(uniform(-1.4, 1.4), uniform(-1.4, 1.4))

    p_law = [[parameter(), parameter()] for _ in range(n)]
    p_inv, E, B = [], [], []
    for _ in range(n):
        p_inv.append(parameter())
        E.append([uniform(-1.0, 1.0) for _ in range(3)])
        B.append([uniform(-1.0, 1.0) for _ in range(3)])
    return [np.array(x) for x in (p_law, p_inv, E, B)]


def block_trials(n, seed):
    """The trials as ``cli._small_group_section`` draws them, from one
    ``random.Random(seed)`` through ``cli._draws``, in the layout of
    ``per_draw_trials``."""
    rng = random.Random(seed)
    p_law = np.concatenate([cli._parameter(u.reshape(-1, 2, 2)) for u in cli._draws(rng, n, 4)])
    u = np.concatenate(list(cli._draws(rng, n, 8)))
    return [p_law, cli._parameter(u), -1.0 + 2.0 * u[:, 2:5], -1.0 + 2.0 * u[:, 5:]]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1, 123456789])
def test_bulk_trials_are_the_per_draw_random_doubles(seed):
    b = du.SCAN_BLOCK
    for n in (1, 2, 3, 7, b - 1, b, b + 1, 2 * b + 1, 2000):
        for got, want in zip(block_trials(n, seed), per_draw_trials(n, seed), strict=True):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert_same_bits(got, want)


def report_bits(tv, trials):
    """The repr of ``cli.analyze``'s report, but for ``generated_at``: equal
    reprs hold the same bits."""
    report = cli.analyze(tv, "in.yaml", scan_n=360, trials=trials, seed=42)
    del report["generated_at"]
    report["duality"]["table"] = report["duality"]["table"].tolist()
    return repr(report)


def rand_vectors(kind):
    k = RAND_K[kind](np.random.default_rng(11))
    return nc.ThetaVectors(-k.imag, k.real)


@pytest.mark.parametrize("kind", [nc.NONISOTROPIC, nc.ISOTROPIC])
def test_blocked_trials_match_one_block(kind, monkeypatch):
    """The small-group trials, checked ``SCAN_BLOCK`` rows at a time, give
    the report of all of them checked in one block."""
    tv = rand_vectors(kind)
    b = du.SCAN_BLOCK
    blocked = {n: report_bits(tv, n) for n in (b - 1, b, b + 1)}
    monkeypatch.setattr(du, "SCAN_BLOCK", 4 * b)
    for n, report in blocked.items():
        assert report == report_bits(tv, n)


@pytest.mark.parametrize("check, row", [
    ("stabilizes", "max_stabilizer_residual"),
    ("group_law_check", "group_law_defect"),
    ("verify_constitutive_invariance", "max_invariance_residual"),
])
def test_nan_in_a_later_block_reaches_its_row(check, row, monkeypatch):
    """A NaN residual in the last row of the last trial block is the row's
    value, and the report fails."""
    tv = rand_vectors(nc.NONISOTROPIC)
    n = 2 * du.SCAN_BLOCK + 3
    original = getattr(sg, check)
    blocks = 3 + (check == "stabilizes")   # the samples take one call of their own
    calls = []

    def nan_in_last_block(*args):
        out = original(*args)
        calls.append(len(out))
        if len(calls) == blocks:
            out[-1] = np.nan
        return out

    monkeypatch.setattr(sg, check, nan_in_last_block)
    report = cli.analyze(tv, "in.yaml", scan_n=360, trials=n, seed=42)
    assert calls[blocks - 1] == 3   # the last trial block; nonmember_residual calls stabilizes too
    assert np.isnan(report["small_group"][row])
    assert report["status"] == "fail"


def nonmembers_at(monkeypatch, axes):
    """Make ``sg.element`` return, in every row whose parameter is a key of
    ``axes``, the rotation by 1 about that lab axis, which no K fixes."""
    element = sg.element

    def patched(d, w):
        e = np.array(element(d, w))
        if np.ndim(w) == 1:
            for p, axis in axes.items():
                e[np.asarray(w) == p] = lorentz.exp(0.5, np.eye(3)[axis])
        return e

    monkeypatch.setattr(sg, "element", patched)


@pytest.mark.parametrize("kind", [nc.NONISOTROPIC, nc.ISOTROPIC])
def test_noncommuting_pair_in_a_later_block_fails_abelian(kind, monkeypatch):
    """Group-law trial 612, row 100 of the second block, draws a rotation
    about x as p₁'s element and one about y as p₂'s: they do not commute."""
    tv = rand_vectors(kind)
    assert cli.analyze(tv, "in.yaml", scan_n=360, trials=1000, seed=42)["checks"]["abelian"]
    p1, p2 = block_trials(1000, 42)[0][612]
    nonmembers_at(monkeypatch, {p1: 0, p2: 1})
    report = cli.analyze(tv, "in.yaml", scan_n=360, trials=1000, seed=42)
    assert report["small_group"]["abelian_defect"] > 0.1
    assert report["checks"]["abelian"] is False


@pytest.mark.parametrize("kind", [nc.NONISOTROPIC, nc.ISOTROPIC])
def test_nonmember_in_a_later_block_fails_invariance(kind, monkeypatch):
    """Invariance trial 700, row 188 of the second block, draws a rotation
    about x, which moves K."""
    tv = rand_vectors(kind)
    assert cli.analyze(tv, "in.yaml", scan_n=360, trials=1000, seed=42)["checks"]["invariance"]
    nonmembers_at(monkeypatch, {block_trials(1000, 42)[1][700]: 0})
    report = cli.analyze(tv, "in.yaml", scan_n=360, trials=1000, seed=42)
    assert report["checks"]["invariance"] is False
