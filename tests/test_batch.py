"""Batch-first kernels against a per-row reference, bit for bit.

The references below are the scalar forms of the kernels: one element at a
time, every component product a product of numpy scalars.  A batched kernel must return, for every row of a
batch and for a single input, exactly the bits its reference returns.
"""

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

from conftest import rand_isotropic_k, rand_nonisotropic_k, rand_unit_element


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


def ref_act_vector(L, v):
    v = np.asarray(v, np.complex128)
    n = ref_conj_components(L)
    vq = np.zeros(4, np.complex128)
    vq[1:] = v
    r = ref_mul(ref_mul(n, vq), ref_conj_quat(n))
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
        # signed elements, -L being the other sheet of L; an integer sign
        # times 1 + 0j keeps the +0.0 that unary minus would flip
        e1 = sign[:, :1] * sg.element(d, w=z[:, 0])
        e2 = sign[:, 1:] * sg.element(d, w=z[:, 1])
        ref1 = [ref_element(d, w=w, sign=int(s)) for w, s in zip(z[:, 0], sign[:, 0])]
        ref2 = [ref_element(d, w=w, sign=int(s)) for w, s in zip(z[:, 1], sign[:, 1])]
        target = [ref_element(d, w=complex(a) + complex(b), sign=int(s * t))
                  for (a, b), (s, t) in zip(z, sign)]
        # the unsigned defect has the bits of the signed one
        law = sg.group_law_check(d, z[:, 0], z[:, 1])
        assert_same_bits(-1 * sg.element(d, w=z[0, 0]), ref_element(d, w=z[0, 0], sign=-1))
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
    assert_same_bits(ct.covariant_transport_check(k, L, E, B),
                     [ref_covariance(a, b, k, l) for a, b, l in zip(E, B, L)])
    assert_same_bits(ct.covariant_transport_check(k, L[0], E[0], B[0]),
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
    chis, res = du.duality_scan(state, k, n)
    ref_chis = 2.0 * np.pi * np.arange(n) / n
    assert_same_bits(chis, ref_chis)
    assert_same_bits(res, ref_scan(state.G, state.R, k, ref_chis))


RAND_K = {nc.NONISOTROPIC: rand_nonisotropic_k, nc.ISOTROPIC: rand_isotropic_k,
          nc.ZERO: lambda rng: np.zeros(3, complex)}


@pytest.mark.parametrize("kind", list(RAND_K))
def test_blocked_duality_scan_matches_whole_grid(kind):
    """The scan, taken ``SCAN_BLOCK`` angles at a time, gives the bits of
    ``_gr_residual`` on the whole grid in one call."""
    rng = np.random.default_rng(9)
    k = RAND_K[kind](rng)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    state = du.gr_from_fh(f, ct.h_from_f(f, k))
    b = du.SCAN_BLOCK
    for n in (8, b - 1, b, b + 1, 2 * b + 1, 10_000):
        chis, res = du.duality_scan(state, k, n)
        ph = np.exp(1j * chis)[:, None]
        assert_same_bits(res, du._gr_residual(ph * state.G, state.R / ph, ph * k))


# ---------------------------------------------------------------------------
# bulk trial draws against the per-trial draws they replace
#
# The oracle is the analyzer's former per-trial code, kept verbatim with its
# isotropic signs: the bulk draws must give the same w, E, B and L and leave
# the generator where it left it, which shows that the words they drop are
# the sign words. ``has_uint32`` is not compared: after an odd isotropic
# count the per-trial draws leave a half-word in PCG64's 32-bit buffer, which
# no later draw reads.

def _random_parameter(d, rng):
    """One trial parameter and sign; the draws fix the RNG stream."""
    z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
    if d.kind == nc.NONISOTROPIC:
        return z, 1
    return z, (-1, 1)[rng.integers(0, 2)]


def _rand_unit_element(rng):
    # bounded Hermitian size: the covariance threshold is absolute, and the
    # rounding error of a sandwich grows with the boost magnitude
    while True:
        q = rng.normal(size=4) + 1j * rng.normal(size=4)
        n = alg.norm(q)
        if abs(n) > 0.2:
            q = q / np.sqrt(n)
            if float(np.sum(np.abs(q) ** 2)) <= 8.0:
                return q


def per_trial_draws(d, n, rng):
    w = np.empty((n, 2), np.complex128)
    sign = np.empty((n, 2), np.int64)
    for i in range(n):
        w[i, 0], sign[i, 0] = _random_parameter(d, rng)
        w[i, 1], sign[i, 1] = _random_parameter(d, rng)
    draws = [w, sign]

    w = np.empty(n, np.complex128)
    sign = np.empty(n, np.int64)
    E, B = np.empty((n, 3)), np.empty((n, 3))
    for i in range(n):
        w[i], sign[i] = _random_parameter(d, rng)
        E[i], B[i] = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    draws += [w, sign, E, B]

    L = np.empty((n, 4), np.complex128)
    E, B = np.empty((n, 3)), np.empty((n, 3))
    for i in range(n):
        L[i] = _rand_unit_element(rng)
        E[i], B[i] = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    return draws + [L, E, B]


def bulk_draws(d, n, rng):
    return [*cli._small_group_trials(d.kind, n, rng), *cli._rand_unit_elements(rng, n)]


def assert_same_stream(d, n, seed):
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    w2, _, w, _, *rest = per_trial_draws(d, n, old)
    for a, b in zip([w2, w, *rest], bulk_draws(d, n, new), strict=True):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (n, seed)
    assert old.bit_generator.state["state"] == new.bit_generator.state["state"]
    assert np.array_equal(old.random(4), new.random(4))
    assert np.array_equal(old.standard_normal(4), new.standard_normal(4))


def describe_kind(kind):
    rng = np.random.default_rng(9)
    if kind == nc.NONISOTROPIC:
        return sg.describe(rand_nonisotropic_k(rng))
    return sg.describe(rand_isotropic_k(rng))


@pytest.mark.parametrize("kind", [nc.NONISOTROPIC, nc.ISOTROPIC])
def test_bulk_trial_draws_follow_the_per_trial_stream(kind):
    d = describe_kind(kind)
    for seed in range(200):
        for n in (1, 2, 3, 7):
            assert_same_stream(d, n, seed)


@pytest.mark.parametrize("kind", [nc.NONISOTROPIC, nc.ISOTROPIC])
def test_bulk_trial_draws_follow_the_per_trial_stream_at_2000(kind):
    d = describe_kind(kind)
    for seed in range(1000, 1005):
        assert_same_stream(d, 2000, seed)


def test_sign_draw_keeps_rng_stream():
    """The trial sign is drawn as ``(-1, 1)[rng.integers(0, 2)]``; it must
    consume the stream exactly as ``rng.choice([-1, 1])`` did."""
    old, new = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(500):
        assert old.uniform(-1.4, 1.4) == new.uniform(-1.4, 1.4)
        assert int(old.choice([-1, 1])) == (-1, 1)[new.integers(0, 2)]
    assert old.uniform() == new.uniform()


def per_trial_accepts(z):
    """The per-trial rule of ``_rand_unit_element`` for one attempt."""
    q = (z[:4] + 0.0) + 1j * (z[4:] + 0.0)
    n = alg.norm(q)
    if abs(n) > 0.2:
        q = q / np.sqrt(n)
        if float(np.sum(np.abs(q) ** 2)) <= 8.0:
            return True
    return False


def abs_norm(z):
    return abs(alg.norm(z[:4] + 1j * z[4:]))


def size_ratio(z):
    q = z[:4] + 1j * z[4:]
    return float(np.sum(np.abs(q / np.sqrt(alg.norm(q))) ** 2))


def boundary(path, lo, hi):
    """The attempts at both sides of the last flip of ``per_trial_accepts``
    along ``path(t)``, t in [lo, hi], found by bisection down to adjacent t,
    with their three neighbours in t on each side."""
    before = per_trial_accepts(path(lo))
    assert per_trial_accepts(path(hi)) != before
    while np.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if per_trial_accepts(path(mid)) == before:
            lo = mid
        else:
            hi = mid
    ts = [lo, hi]
    for _ in range(3):
        ts = [np.nextafter(ts[0], -np.inf), *ts, np.nextafter(ts[-1], np.inf)]
    return [path(t) for t in ts]


def test_unit_draw_rule_matches_per_trial_rule_at_its_thresholds():
    """Attempts within 1e-12 of |norm q| = 0.2 and of Σ|qᵢ|²/|norm q| = 8,
    on both sides, where the Python-float estimate alone would misjudge
    some of them."""
    rng = np.random.default_rng(12)
    near_norm, near_size = [], []
    while len(near_norm) < 20 * 8:
        z = rng.standard_normal(8)
        if 1.5 < size_ratio(z) < 6.0:
            # |norm(t·z)| = t²·|norm z| crosses 0.2 once
            t0 = np.sqrt(0.2 / abs_norm(z))
            near_norm += boundary(lambda t: t * z, 0.5 * t0, 2.0 * t0)
    while len(near_size) < 20 * 8:
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        if size_ratio(a) < 4.0 and size_ratio(b) > 12.0:
            a, b = a / np.sqrt(abs_norm(a)), b / np.sqrt(abs_norm(b))
            zs = boundary(lambda t: (1.0 - t) * a + t * b, 0.0, 1.0)
            if min(abs_norm(z) for z in zs) > 0.3:
                near_size += zs
    for zs, value, threshold in ((near_norm, abs_norm, 0.2), (near_size, size_ratio, 8.0)):
        assert max(abs(value(z) / threshold - 1.0) for z in zs) <= 1e-12
        accepted = [per_trial_accepts(z) for z in zs]
        assert any(accepted) and not all(accepted)
        assert [cli._accepts(z) for z in zs] == accepted
