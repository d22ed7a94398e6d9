"""Dual rotations: discrete invariance of the constitutive pair."""

from pathlib import Path

import numpy as np
import pytest
import yaml

from nced import constitutive as ct
from nced import duality as du
from nced import noncomm as nc
from nced.cli import load_input, main

GOLDEN = Path(__file__).parent / "data" / "golden"


def consistent_state(rng):
    tv = nc.ThetaVectors(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    k = nc.k_from_vectors(tv)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    return du.state(f, k), k


def golden_direction():
    """The unit K of the golden nonisotropic input."""
    k = nc.k_from_vectors(load_input(GOLDEN / "nonisotropic.yaml"))
    return k / np.sqrt(np.sum(np.abs(k) ** 2))


def grid_distance_to_quarter(chi):
    return abs((chi + np.pi / 4) % (np.pi / 2) - np.pi / 4)


def test_gr_roundtrip_exact():
    rng = np.random.default_rng(0)
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    h = rng.normal(size=3) + 1j * rng.normal(size=3)
    s = du.GRState(f + h, f - h)
    f2, h2 = du.fh_from_gr(s)
    assert np.max(np.abs(f2 - f)) <= 1e-15 * max(1.0, np.max(np.abs(f)))
    assert np.max(np.abs(h2 - h)) <= 1e-15 * max(1.0, np.max(np.abs(h)))


def test_dual_rotate_special_angles():
    rng = np.random.default_rng(1)
    s, k = consistent_state(rng)
    s0, k0 = du.dual_rotate(s, k, 0.0)
    assert np.array_equal(s0.G, s.G) and np.array_equal(s0.R, s.R)
    assert np.array_equal(k0, k)
    sp, kp = du.dual_rotate(s, k, np.pi)
    assert np.max(np.abs(sp.G + s.G)) <= 1e-15
    assert np.max(np.abs(sp.R + s.R)) <= 1e-15
    assert np.max(np.abs(kp + k)) <= 1e-15
    sq, kq = du.dual_rotate(s, k, np.pi / 2)
    assert np.max(np.abs(sq.G - 1j * s.G)) <= 1e-15
    assert np.max(np.abs(sq.R + 1j * s.R)) <= 1e-15
    assert np.max(np.abs(kq - 1j * k)) <= 1e-15


def test_residual_zero_on_consistent_states():
    rng = np.random.default_rng(2)
    for _ in range(100):
        s, k = consistent_state(rng)
        assert du.constitutive_residual_gr(s, k) <= 1e-12


def test_residual_zero_on_zero_fields():
    s = du.GRState(np.zeros(3, complex), np.zeros(3, complex))
    assert du.constitutive_residual_gr(s, np.ones(3, complex)) == 0.0


def test_residual_positive_on_inconsistent_states():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(50):
        f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        h = ct.h_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        k = nc.k_from_vectors(
            nc.ThetaVectors(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        )
        if du.constitutive_residual_gr(du.GRState(f + h, f - h), k) > 1e-3:
            hits += 1
    assert hits >= 48  # generic: essentially always


def test_scan_of_inconsistent_input_starts_at_its_defect():
    # the scan checks no precondition: its residual at chi = 0 is the
    # state's own defect, bit for bit, which the report's duality_zeros bounds
    rng = np.random.default_rng(4)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    h = f + 0.5
    k = np.array([0.3, 0, 0], complex)
    s = du.GRState(f + h, f - h)
    _, res = du.duality_scan(s, k, 16)
    pre = du.constitutive_residual_gr(s, k)
    assert pre > 1e-3
    assert res[0].tobytes() == np.float64(pre).tobytes()


def test_scan_rejects_small_n():
    rng = np.random.default_rng(5)
    s, k = consistent_state(rng)
    with pytest.raises(ValueError):
        du.duality_scan(s, k, 7)


def test_scan_zero_structure():
    rng = np.random.default_rng(6)
    s, k = consistent_state(rng)
    chis, res = du.duality_scan(s, k, 720)
    assert chis.shape == res.shape == (720,)
    for idx in (0, 180, 360, 540):
        assert abs(chis[idx] - idx * np.pi / 360) <= 1e-12
        assert res[idx] <= 1e-11
    far = [r for chi, r in zip(chis, res) if grid_distance_to_quarter(chi) >= np.pi / 36]
    assert min(far) >= 1e-6


def test_scan_quarter_period_pointwise():
    rng = np.random.default_rng(7)
    s, k = consistent_state(rng)
    _, res = du.duality_scan(s, k, 720)
    assert np.max(np.abs(res - np.roll(res, -180))) <= 1e-11


def test_pi_half_point_via_explicit_rotation():
    rng = np.random.default_rng(8)
    s, k = consistent_state(rng)
    for j in range(4):
        rotated, k_rot = du.dual_rotate(s, k, j * np.pi / 2)
        assert du.constitutive_residual_gr(rotated, k_rot) <= 1e-11


def test_quarter_off_angle_positive():
    # chi = pi/4 breaks the invariance at order-one magnitude
    E = np.array([1.0, 0, 0])
    B = np.array([0, 1.0, 0])
    tv = nc.ThetaVectors(np.array([0.2, 0, 0]), np.array([0, 0, 0.3]))
    k = nc.k_from_vectors(tv)
    f = ct.f_vector(E, B)
    s = du.state(f, k)
    rotated, k_rot = du.dual_rotate(s, k, np.pi / 4)
    assert du.constitutive_residual_gr(rotated, k_rot) > 1e-4


def test_commutative_limit_restores_continuous_duality():
    rng = np.random.default_rng(9)
    f = ct.f_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    s = du.state(f, np.zeros(3))
    _, res = du.duality_scan(s, np.zeros(3, complex), 720)
    assert res.max() <= 1e-12


def test_an_overflowed_orientation_makes_the_residual_nan():
    """At K = 1e120·(1, −i, 0) the inverse orientation of the analyzer's state
    overflows to a NaN component while the forward one stays finite. The
    residual is NaN, not the finite orientation's defect; swapping the
    orientations (R → −R swaps f and h) gives NaN too, and so does every
    residual of the scan, which no bound of the report passes."""
    k = 1e120 * np.array([1.0, -1.0j, 0.0])
    f = ct.f_vector(du.GENERIC_E, du.GENERIC_B)
    with np.errstate(all="ignore"):
        s = du.state(f, k)
        assert np.isnan(du.constitutive_residual_gr(s, k))
        assert np.isnan(du.constitutive_residual_gr(du.GRState(s.G, -s.R), k))
        # the forward orientation alone is finite
        f_, h_ = du.fh_from_gr(s)
        assert np.all(np.isfinite(ct.h_from_f(f_, k) - h_))
        _, res = du.duality_scan(s, k, 360)
        assert np.all(np.isnan(res))


@pytest.mark.parametrize("ratio, passes", [(0.5, True), (2.0, False)])
def test_duality_state_off_the_pair_fails_duality_zeros(tmp_path, capsys, monkeypatch, ratio,
                                                          passes):
    """The negative control of the duality state: the analyzer's state at
    |K| = 1 in the golden direction, with R moved off it so that the residual
    at chi = 0 is ``ratio`` times the duality_zeros bound 1e-11·max(1, peak)
    (restated here), about 1.04e-11. Below the bound the report passes; above
    it the row fails, and the run writes its report and exits 1."""
    tv = load_input(GOLDEN / "nonisotropic.yaml")
    size = np.sqrt(np.sum(tv.epsilon ** 2 + tv.theta ** 2))
    inp, rep = tmp_path / "in.yaml", tmp_path / "report.yaml"
    inp.write_text(yaml.safe_dump({"epsilon": (tv.epsilon / size).tolist(),
                                   "theta": (tv.theta / size).tolist()}))
    state = du.state
    e = np.array([1.0, -0.5j, 0.25])

    def moved(f, k):
        s = state(f, k)
        target = ratio * 1e-11 * max(1.0, du.duality_scan(s, k, 360)[1].max())
        # the residual is linear in so small a step of R: one trial step sets its size
        slope = du.constitutive_residual_gr(du.GRState(s.G, s.R + target * e), k) / target
        return du.GRState(s.G, s.R + target / slope * e)

    monkeypatch.setattr(du, "state", moved)
    code = main(["analyze", "--input", str(inp), "--report", str(rep)])
    report = yaml.safe_load(rep.read_text())
    dual = report["duality"]
    bound = 1e-11 * max(1.0, dual["peak_residual"])
    assert dual["quarter_turn_residuals"][0] == pytest.approx(ratio * bound, rel=1e-3)
    assert [c for c, ok in report["checks"].items() if not ok] == ([] if passes
                                                                   else ["duality_zeros"])
    assert code == (0 if passes else 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("size", [1.0, 1e-4, 1e-8, 1e-10, 1e-12, 1e-14])
def test_state_peak_follows_k_squared(size):
    """In the golden direction with the generic field pair, the scan's peak
    over |K|² stays at 0.82 to 0.83 from |K| = 1e-4 down to 1e-14 (1.04 at
    |K| = 1). A state formed as f ± h_from_f(f, K) carries h's rounding at
    ulp(|f|): its ratio is 4.2e3 at |K| = 1e-10."""
    k = size * golden_direction()
    _, res = du.duality_scan(du.state(ct.f_vector(du.GENERIC_E, du.GENERIC_B), k), k, 360)
    assert 0.8 <= res.max() / size ** 2 <= 1.1
