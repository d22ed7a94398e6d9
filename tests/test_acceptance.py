"""Acceptance criteria, one test per criterion, at the stated bounds.

Each test prints one ACCEPTANCE n PASS/FAIL line (pytest -s or -rA shows
them); a failure is also an ordinary assertion failure.
"""

import functools
import subprocess
import sys

import numpy as np

from nced import algebra as alg
from nced import checks
from nced import constitutive as ct
from nced import duality as du
from nced import lorentz as lo
from nced import maxwell as mx
from nced import noncomm as nc
from nced import smallgroup as sg
from nced.cli import analyze, write_report

from conftest import group_law, rand_isotropic_k, rand_nonisotropic_k, rand_unit_element
from test_algebra import mul_oracle, rand_quat
from test_maxwell import frozen_map


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} FAIL: {label}")
                raise
        return wrapper
    return deco


@criterion(1, "algebra fidelity")
def test_criterion_01_algebra_fidelity():
    rng = np.random.default_rng(101)
    worst_mul = worst_conj = worst_norm = 0.0
    for _ in range(10_000):
        q, p = rand_quat(rng), rand_quat(rng)
        prod = alg.mul(q, p)
        ref = mul_oracle(q, p)
        worst_mul = max(worst_mul, np.max(np.abs(prod - ref)) / np.max(np.abs(ref)))
        anti = alg.mul(alg.conj_quat(p), alg.conj_quat(q))
        worst_conj = max(
            worst_conj,
            np.max(np.abs(alg.conj_quat(prod) - anti)) / max(1.0, np.max(np.abs(anti))),
        )
        nm = alg.norm(q) * alg.norm(p)
        worst_norm = max(worst_norm, abs(alg.norm(prod) - nm) / max(1.0, abs(nm)))
    assert worst_mul <= 1e-13
    assert worst_conj <= 1e-12
    assert worst_norm <= 1e-12
    _passed(1, f"product vs structure-constant oracle on 1e4 pairs "
               f"(mul {worst_mul:.2e}, conj {worst_conj:.2e}, norm {worst_norm:.2e})")


@criterion(2, "field-equation form equivalence")
def test_criterion_02_maxwell_form_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        s = mx.random_sample(rng)
        vr = mx.vector_residuals(s)
        q = mx.quaternionic_residual(s)
        w_s, w_v = frozen_map(vr)
        worst = max(worst, abs(q[0] - w_s), float(np.max(np.abs(q[1:] - w_v))))
    assert worst <= 1e-13
    wave = mx.plane_wave_sample(0.7, np.array([0.2, -1.0, 0.4]))
    vr = mx.vector_residuals(wave)
    assert max(np.max(np.abs(vr.faraday)), abs(vr.div_b),
               np.max(np.abs(vr.ampere)), abs(vr.div_d)) <= 1e-14
    assert np.max(np.abs(mx.quaternionic_residual(wave))) <= 1e-14
    _passed(2, f"quaternionic vs vector residual map on 1000 samples ({worst:.2e})")


@criterion(3, "constitutive cross-form equivalence")
def test_criterion_03_constitutive_cross_form():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        E, B = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        tv = nc.ThetaVectors(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        D, H = ct.forward(E, B, tv)
        D2, H2 = ct.dh_from_h(ct.h_from_f(ct.f_vector(E, B), nc.k_from_vectors(tv)))
        worst = max(worst, np.max(np.abs(D - D2)), np.max(np.abs(H - H2)))
    assert worst <= 1e-13
    D, H = ct.forward(
        np.array([1.0, 0, 0]), np.array([1.0, 0, 0]),
        nc.ThetaVectors(np.zeros(3), np.array([0.1, 0, 0])),
    )
    assert np.max(np.abs(D - [1.1, 0, 0])) <= 1e-15
    assert np.max(np.abs(H - [0.8, 0, 0])) <= 1e-15
    _passed(3, f"vector vs quaternionic constitutive maps on 1000 states ({worst:.2e})")


@criterion(4, "first-order inverse scaling")
def test_criterion_04_first_order_inverse_slope():
    rng = np.random.default_rng(104)
    slopes = []
    for _ in range(5):
        E, B = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        tv0 = nc.ThetaVectors(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        lams = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        resid = []
        for lam in lams:
            tv = nc.ThetaVectors(lam * tv0.epsilon, lam * tv0.theta)
            D, H = ct.forward(E, B, tv)
            E2, B2 = ct.inverse(D, H, tv)
            resid.append(max(np.max(np.abs(E2 - E)), np.max(np.abs(B2 - B))))
        slopes.append(np.polyfit(np.log(lams), np.log(resid), 1)[0])
    for s in slopes:
        assert abs(s - 2.0) <= 0.05
    _passed(4, f"inverse-of-forward residual scales with slope "
               f"{np.mean(slopes):.4f} (target 2 +- 0.05)")


@criterion(5, "stabilizer correctness")
def test_criterion_05_stabilizer_correctness():
    rng = np.random.default_rng(105)
    worst_stab = worst_law = worst_comm = 0.0
    weakest_generic = np.inf
    for make in (rand_nonisotropic_k, rand_isotropic_k):
        for _ in range(100):
            k = make(rng)
            d = sg.describe(k)
            if d.kind == nc.NONISOTROPIC:
                params = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
                elements = [sg.element(d, p) for p in params]
                worst_law = max(worst_law, group_law(d, params[0], params[1]))
            else:
                params = [
                    (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), int(rng.choice([-1, 1])))
                    for _ in range(3)
                ]
                elements = [s * sg.element(d, w) for w, s in params]
                worst_law = max(worst_law, group_law(d, params[0][0], params[1][0]))
            for L in elements:
                worst_stab = max(worst_stab, sg.stabilizes(L, k))
            comm = alg.mul(elements[0], elements[1]) - alg.mul(elements[1], elements[0])
            worst_comm = max(worst_comm, float(np.max(np.abs(comm))))
            # a generic rotation about a fixed lab axis is not in the group
            weakest_generic = min(weakest_generic, checks.nonmember_residual(k))
    assert worst_stab <= 1e-12
    assert worst_law <= 1e-12
    assert worst_comm <= 1e-12
    assert weakest_generic >= 1e-4
    _passed(5, f"stabilizer residual {worst_stab:.2e}, group law {worst_law:.2e}, "
               f"commutator {worst_comm:.2e}, generic floor {weakest_generic:.2e}")


@criterion(6, "form-invariance and covariant transport")
def test_criterion_06_form_invariance_and_covariance():
    rng = np.random.default_rng(106)
    worst_inv = 0.0
    for kind in ("nonisotropic", "isotropic"):
        for _ in range(5):
            # medium parameters of order one, like the field draws
            if kind == "nonisotropic":
                k = rand_nonisotropic_k(rng)
                k = k / max(1.0, float(np.max(np.abs(k))))
                if nc.classify(k) != nc.NONISOTROPIC:
                    continue
            else:
                k = rand_isotropic_k(rng, scale_range=(0.4, 1.0))
            d = sg.describe(k)
            for _ in range(100):
                # parameter domains per the stated property: |chi| <= 2, |w| <= 2
                if d.kind == nc.NONISOTROPIC:
                    L = sg.element(d, complex(rng.uniform(-1.4, 1.4),
                                              rng.uniform(-1.4, 1.4)))
                else:
                    w = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
                    L = int(rng.choice([-1, 1])) * sg.element(d, w)
                E, B = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
                worst_inv = max(worst_inv, sg.verify_constitutive_invariance(k, L, E, B))
    assert worst_inv <= 1e-12
    worst_cov = 0.0
    n_draws = 0
    while n_draws < 200:
        E, B = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        tv = nc.ThetaVectors(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        L = rand_unit_element(rng)
        if lo.abs2(L) > 8.0:
            continue  # absolute tolerance needs bounded rapidity
        n_draws += 1
        worst_cov = max(worst_cov, ct.covariant_transport_check(nc.k_from_vectors(tv), L, E, B))
    assert worst_cov <= 1e-12
    _passed(6, f"small-group form-invariance {worst_inv:.2e}, "
               f"full-group covariant transport {worst_cov:.2e}")


def _rodrigues4(axis, angle):
    n = np.asarray(axis, float)
    n = n / np.linalg.norm(n)
    c, s = np.cos(angle), np.sin(angle)
    cross = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    r3 = c * np.eye(3) + (1 - c) * np.outer(n, n) + s * cross
    out = np.eye(4)
    out[1:, 1:] = r3
    return out


def _boost4(axis, rapidity):
    # rapidity oriented along -axis, matching the element convention here
    n = np.asarray(axis, float)
    n = n / np.linalg.norm(n)
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    out = np.eye(4)
    out[0, 0] = ch
    out[0, 1:] = -sh * n
    out[1:, 0] = -sh * n
    out[1:, 1:] = np.eye(3) + (ch - 1) * np.outer(n, n)
    return out


@criterion(7, "rotation/boost and displacement group structure")
def test_criterion_07_group_structure():
    rng = np.random.default_rng(107)
    worst_rot = worst_boost = 0.0
    for _ in range(25):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        k = axis.astype(complex)  # canonical-form K: real unit vector
        d = sg.describe(k)
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        rot, bst = lo.factorize(sg.element(d, complex(a, b)))
        worst_rot = max(
            worst_rot,
            float(np.max(np.abs(lo.lorentz_matrix4(rot) - _rodrigues4(axis, 2 * a)))),
        )
        worst_boost = max(
            worst_boost,
            float(np.max(np.abs(lo.lorentz_matrix4(bst) - _boost4(axis, 2 * b)))),
        )
    assert worst_rot <= 1e-11
    assert worst_boost <= 1e-11
    worst_t2 = 0.0
    for _ in range(100):
        k = rand_isotropic_k(rng)
        d = sg.describe(k)
        p1 = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), int(rng.choice([-1, 1])))
        p2 = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), int(rng.choice([-1, 1])))
        worst_t2 = max(worst_t2, group_law(d, p1[0], p2[0]))
    assert worst_t2 <= 1e-12
    _passed(7, f"rotation-by-2a / boost-by-2b factor matrices ({worst_rot:.2e}, "
               f"{worst_boost:.2e}); isotropic displacement law {worst_t2:.2e}")


@criterion(8, "canonical form reduction")
def test_criterion_08_canonical_form():
    rng = np.random.default_rng(108)
    worst_im = worst_drift = 0.0
    for _ in range(100):
        k = rand_nonisotropic_k(rng)
        L, k_can = sg.canonical_form(k)
        d = sg.describe(k)
        worst_im = max(worst_im, float(np.max(np.abs(lo.act_vector(L, d.phi_hat).imag))))
        worst_drift = max(
            worst_drift, abs(complex(k_can @ k_can) - complex(k @ k)) / max(1.0, abs(k @ k))
        )
    # README promises the reduction for any non-null K, isotropic ones too
    target = np.array([1.0, -1.0j, 0.0])
    worst_null = worst_square = 0.0
    for _ in range(50):
        k = rand_isotropic_k(rng)
        L, k_can = sg.canonical_form(k)
        image = lo.act_vector(L, nc.phi_from_k(k))
        worst_null = max(worst_null, float(np.max(np.abs(image - target))))
        worst_square = max(worst_square, abs(complex(k_can @ k_can)))
    assert worst_im <= 1e-11
    assert worst_drift <= 1e-12
    assert worst_null <= 1e-11
    assert worst_square <= 1e-11
    _passed(8, f"canonical reduction: residual imaginary part {worst_im:.2e}, "
               f"invariant drift {worst_drift:.2e}; isotropic: null-vector residual "
               f"{worst_null:.2e}, k_can.k_can {worst_square:.2e}")


@criterion(9, "discrete duality")
def test_criterion_09_discrete_duality():
    rng = np.random.default_rng(109)
    quarter_idx = (0, 180, 360, 540)
    worst_zero = 0.0
    worst_floor = np.inf
    for _ in range(50):
        E, B = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        tv = nc.ThetaVectors(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        k = nc.k_from_vectors(tv)
        f = ct.f_vector(E, B)
        s = du.gr_from_fh(f, ct.h_from_f(f, k))
        chis, res = du.duality_scan(s, k, 720)
        worst_zero = max(worst_zero, float(res[list(quarter_idx)].max()))
        worst_floor = min(worst_floor, checks.offgrid_min(chis, res))
    assert worst_zero <= 1e-11
    assert worst_floor >= 1e-6
    # commutative limit: every grid point is invariant
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    s0 = du.gr_from_fh(f, f.copy())
    zero_worst = float(du.duality_scan(s0, np.zeros(3, complex), 720)[1].max())
    assert zero_worst <= 1e-12
    _passed(9, f"quarter-turn zeros {worst_zero:.2e}, off-axis floor "
               f"{worst_floor:.2e}, commutative limit {zero_worst:.2e}")


@criterion(10, "complex orthogonal and Lorentz matrix realizations")
def test_criterion_10_so3c_and_lorentz_matrices():
    rng = np.random.default_rng(110)
    worst_orth = worst_det = worst_fix = 0.0
    worst_eta = worst_det4 = 0.0
    min_m00 = np.inf
    for _ in range(1000):
        q = rand_unit_element(rng)
        o = lo.so3c_entries(q)
        worst_orth = max(worst_orth, float(np.max(np.abs(o.T @ o - np.eye(3)))))
        worst_det = max(worst_det, abs(np.linalg.det(o) - 1.0))
        worst_fix = max(worst_fix, float(np.max(np.abs(o @ q[1:] - q[1:]))))
        m = lo.lorentz_matrix4(q)
        worst_eta = max(worst_eta, float(np.max(np.abs(m.T @ lo.ETA @ m - lo.ETA))))
        worst_det4 = max(worst_det4, abs(np.linalg.det(m) - 1.0))
        min_m00 = min(min_m00, m[0, 0])
    assert worst_orth <= 1e-12
    assert worst_det <= 1e-12
    assert worst_fix <= 1e-12
    assert worst_eta <= 1e-12
    assert worst_det4 <= 1e-11
    assert min_m00 >= 1.0 - 1e-12
    _passed(10, f"entry map orthogonality {worst_orth:.2e}, det {worst_det:.2e}, "
                f"fixed vector {worst_fix:.2e}; metric {worst_eta:.2e}, "
                f"det4 {worst_det4:.2e}, Lambda00 min {min_m00:.6f}")


@criterion(11, "CLI contract")
def test_criterion_11_cli(tmp_path):
    # nonisotropic example
    example = nc.ThetaVectors(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    report = analyze(example, "a.yaml", scan_n=360, trials=25, seed=42)
    assert report["status"] == "pass"
    assert report["classification"] == "nonisotropic"
    phi_hat = np.array([complex(x, y) for x, y in report["small_group"]["phi_hat"]])
    assert np.max(np.abs(phi_hat - [0, 0, 1])) <= 1e-12
    assert report["small_group"]["max_stabilizer_residual"] <= 1e-11
    assert report["small_group"]["max_invariance_residual"] <= 1e-11
    assert max(report["duality"]["quarter_turn_residuals"]) <= 1e-11

    # zero input: note, no small-group section, passes (exit 0)
    zero = nc.vectors_from_tensor(np.zeros((4, 4)))
    report = analyze(zero, "b.yaml", scan_n=360, trials=25, seed=42)
    assert report["status"] == "pass"
    assert report["classification"] == "zero"
    assert "small_group" not in report and "note" in report

    # non-antisymmetric input: exit code 2 through the CLI surface
    (tmp_path / "c.yaml").write_text(
        "theta_matrix: [[0,1,0,0],[1,0,0,0],[0,0,0,0],[0,0,0,0]]\n")
    proc = subprocess.run(
        [sys.executable, "-m", "nced", "analyze", "--input", str(tmp_path / "c.yaml"),
         "--report", str(tmp_path / "c.out")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2

    # byte determinism modulo the timestamp line
    bodies = []
    for _ in range(2):
        write_report(analyze(example, "a.yaml", scan_n=360, trials=25, seed=42),
                     tmp_path / "det.out")
        text = (tmp_path / "det.out").read_text()
        bodies.append("\n".join(l for l in text.splitlines()
                                if not l.startswith("generated_at:")))
    assert bodies[0] == bodies[1]
    _passed(11, "CLI classifications, exit codes and byte determinism")
