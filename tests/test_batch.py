"""Batch-first kernels against a per-row reference, bit for bit.

The references below are the scalar forms of the kernels: one element at a
time, every component product a product of numpy scalars.  A batched kernel must return, for every row of a
batch and for a single input, exactly the bits its reference returns.
"""

import numpy as np
import pytest

import nced
from nced import algebra as alg
from nced import constitutive as ct
from nced import duality as du
from nced import lorentz
from nced import noncomm as nc
from nced import smallgroup as sg
from nced.errors import DegenerateError
from nced.tolerances import DEFAULT as TOL, Tolerances

from conftest import rand_nonisotropic_k, rand_unit_element


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


def ref_h_from_f(f, k):
    s_fk = ref_cdot(f, k).conjugate()
    s_ff = ref_cdot(f, f).conjugate()
    return f - s_fk * f - 0.5 * s_ff * k


def ref_f_from_h(h, k):
    s_hk = ref_cdot(h, k).conjugate()
    s_hh = ref_cdot(h, h).conjugate()
    return h + s_hk * h + 0.5 * s_hh * k


def ref_act_vector(L, v, tol=TOL):
    v = np.asarray(v, np.complex128)
    n = ref_conj_components(L)
    vq = np.zeros(4, np.complex128)
    vq[1:] = v
    r = ref_mul(ref_mul(n, vq), ref_conj_quat(n))
    scale = max(1.0, float(np.sum(np.abs(n) ** 2)) * float(np.max(np.abs(v), initial=0.0)))
    if abs(r[0]) > tol.scalar_leak * scale:
        raise DegenerateError(f"scalar leak {abs(r[0]):.3e} in vector transform")
    return r[1:4]


def ref_element(d, chi=None, w=None, sign=1):
    q = np.zeros(4, np.complex128)
    if d.kind == nc.NONISOTROPIC:
        chi = complex(chi)
        q[0] = np.cos(chi)
        q[1:] = np.sin(chi) * d.phi_hat
        return q
    q[0] = 1.0
    q[1:] = complex(w) * d.phi
    return sign * q


def ref_stabilizes(L, k):
    return float(np.max(np.abs(ref_act_vector(L, k) - k)))


def ref_invariance(k, L, E, B):
    f = ct.f_vector(E, B)
    h = ref_h_from_f(f, k)
    fp = ref_act_vector(L, f)
    hp = ref_act_vector(L, h)
    return float(np.max(np.abs(ref_h_from_f(fp, k) - hp)))


def ref_covariance(E, B, k, L):
    f = ct.f_vector(E, B)
    h = ref_h_from_f(f, k)
    fp, kp, hp = ref_act_vector(L, f), ref_act_vector(L, k), ref_act_vector(L, h)
    return float(np.max(np.abs(ref_h_from_f(fp, kp) - hp)))


def ref_gr_residual(G, R, K):
    d1 = 0.0
    d2 = 0.0
    f0, f1, f2 = 0.5 * (G[0] + R[0]), 0.5 * (G[1] + R[1]), 0.5 * (G[2] + R[2])
    h0, h1, h2 = 0.5 * (G[0] - R[0]), 0.5 * (G[1] - R[1]), 0.5 * (G[2] - R[2])
    s_fk = (f0 * K[0] + f1 * K[1] + f2 * K[2]).conjugate()
    s_ff = (f0 * f0 + f1 * f1 + f2 * f2).conjugate()
    s_hk = (h0 * K[0] + h1 * K[1] + h2 * K[2]).conjugate()
    s_hh = (h0 * h0 + h1 * h1 + h2 * h2).conjugate()
    fs = (f0, f1, f2)
    hs = (h0, h1, h2)
    for j in range(3):
        fwd = hs[j] - fs[j] + s_fk * fs[j] + 0.5 * s_ff * K[j]
        inv = fs[j] - hs[j] - s_hk * hs[j] - 0.5 * s_hh * K[j]
        m = abs(fwd)
        if m > d2:
            d2 = m
        m = abs(inv)
        if m > d1:
            d1 = m
    return d1 if d1 < d2 else d2


def ref_scan(G, R, K, chis):
    out = np.empty(chis.shape[0], np.float64)
    for i in range(chis.shape[0]):
        ph = np.exp(1j * chis[i])
        out[i] = ref_gr_residual(ph * G, R / ph, ph * K)
    return out


# ---------------------------------------------------------------------------

def bits(x):
    x = np.atleast_1d(x)
    return x.astype(np.complex128 if np.iscomplexobj(x) else np.float64).view(np.uint64)


def assert_same_bits(batched, rows):
    assert np.array_equal(bits(batched), bits(rows))


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


def test_dot_norm_and_conjugations_match_rowwise_reference():
    rng = np.random.default_rng(1)
    q = rand_complex(rng, N, 4)
    a, b = q[:, 1:], rand_complex(rng, N, 3)
    assert_same_bits(alg.cdot(a, b), [ref_cdot(x, y) for x, y in zip(a, b)])
    assert_same_bits(alg.cdot(a[0], b[0]), ref_cdot(a[0], b[0]))
    assert_same_bits(alg.sym_scalar(a, b), [-ref_cdot(x, y) for x, y in zip(a, b)])
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


def test_act_vector_leak_check_is_per_row(monkeypatch):
    """With the leak bound at zero, exactly the rows whose sandwich leaks
    any scalar part must raise; the batch names the worst of them."""
    tol = Tolerances(scalar_leak=0.0)
    monkeypatch.setattr(lorentz, "TOL", tol)
    rng = np.random.default_rng(4)
    L = np.array([rand_unit_element(rng) for _ in range(40)])
    L[::3] = alg.ONE   # the identity leaks nothing
    v = rand_complex(rng, 3)
    leaks = []
    for row in L:
        try:
            ref_act_vector(row, v, tol)
            leaks.append(-1.0)
        except DegenerateError:
            n = ref_conj_components(row)
            r0 = ref_mul(ref_mul(n, np.concatenate([[0], v])), ref_conj_quat(n))[0]
            leaks.append(abs(r0) / max(1.0, np.sum(np.abs(n) ** 2) * np.max(np.abs(v))))
    worst = int(np.argmax(leaks))
    assert leaks[worst] > 0 and min(leaks) < 0
    with pytest.raises(DegenerateError, match=rf"\(row {worst} of 40\)"):
        lorentz.act_vector(L, v)
    lorentz.act_vector(L[leaks.index(-1.0)], v)   # a clean single row passes
    with pytest.raises(DegenerateError, match=r"vector transform$"):
        lorentz.act_vector(L[worst], v)


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
    sign = rng.choice([-1, 1], (N, 2))
    if kind == nc.NONISOTROPIC:
        e1, e2 = sg.element(d, chi=z[:, 0]), sg.element(d, chi=z[:, 1])
        ref1 = [ref_element(d, chi=c) for c in z[:, 0]]
        ref2 = [ref_element(d, chi=c) for c in z[:, 1]]
        target = [ref_element(d, chi=complex(a) + complex(b)) for a, b in z]
        law = sg.group_law_check(d, z[:, 0], z[:, 1])
    else:
        e1 = sg.element(d, w=z[:, 0], sign=sign[:, 0])
        e2 = sg.element(d, w=z[:, 1], sign=sign[:, 1])
        ref1 = [ref_element(d, w=w, sign=int(s)) for w, s in zip(z[:, 0], sign[:, 0])]
        ref2 = [ref_element(d, w=w, sign=int(s)) for w, s in zip(z[:, 1], sign[:, 1])]
        target = [ref_element(d, w=complex(a) + complex(b), sign=int(s * t))
                  for (a, b), (s, t) in zip(z, sign)]
        law = sg.group_law_check(d, (z[:, 0], sign[:, 0]), (z[:, 1], sign[:, 1]))
        assert_same_bits(sg.element(d, w=z[0, 0], sign=-1), ref_element(d, w=z[0, 0], sign=-1))
    assert_same_bits(e1, ref1)
    assert_same_bits(e2, ref2)
    assert_same_bits(law, [float(np.max(np.abs(ref_mul(a, b) - t)))
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
    tv = nc.vectors_from_k(k)
    assert_same_bits(ct.covariant_transport_check(E, B, tv, L),
                     [ref_covariance(a, b, k, l) for a, b, l in zip(E, B, L)])
    assert_same_bits(ct.covariant_transport_check(E[0], B[0], tv, L[0]),
                     ref_covariance(E[0], B[0], k, L[0]))


def test_gr_residual_matches_rowwise_reference():
    rng = np.random.default_rng(7)
    G, R, K = rand_complex(rng, N, 3), rand_complex(rng, N, 3), rand_complex(rng, N, 3)
    assert_same_bits(du._gr_residual(G, R, K),
                     [ref_gr_residual(g, r, k) for g, r, k in zip(G, R, K)])
    assert_same_bits(du._gr_residual(G[0], R[0], K[0]), ref_gr_residual(G[0], R[0], K[0]))


@pytest.mark.parametrize("kind", ["consistent", "zero"])
def test_duality_scan_matches_rowwise_reference(kind):
    rng = np.random.default_rng(8)
    k = np.zeros(3, complex) if kind == "zero" else rand_nonisotropic_k(rng)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    state = du.gr_from_fh(f, ct.h_from_f(f, k))
    n = 720
    table = du.duality_scan(state, k, n)
    chis = 2.0 * np.pi * np.arange(n) / n
    assert_same_bits([chi for chi, _ in table], chis)
    assert_same_bits([r for _, r in table], ref_scan(state.G, state.R, k, chis))
