"""Batch analyzer: classify a noncommutativity input, construct and verify
its residual Lorentz group, reduce it to canonical form and scan the dual
rotation, writing a structured YAML report (optionally a CSV of the scan).

Input file (YAML): either a 4x4 ``theta_matrix`` or a pair of 3-vectors
``epsilon`` / ``theta`` (mutually exclusive).

Exit codes: 0 all checks pass (or the zero-input note), 1 a physics check
failed, 2 malformed input (including non-finite or boolean entries, an
|K|^2 that overflows a float, ``--trials`` or ``--scan-n`` above
``MAX_COUNT``, and unknown options).
"""

import argparse
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np
import yaml

from . import __version__
from . import constitutive as ct
from . import duality as du
from . import lorentz
from . import noncomm as nc
from . import smallgroup as sg
from .algebra import mul, norm
from .errors import InputFormatError, NcedError, NotAntisymmetricError
from .tolerances import DEFAULT as TOL

# the trial and scan checks allocate arrays proportional to these counts
MAX_COUNT = 100_000

# libyaml's emitter writes the same bytes as the pure-Python one, faster
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass
class AnalysisConfig:
    input_path: str
    report_path: str
    csv_path: Optional[str] = None
    scan_n: int = 360
    trials: int = 100
    seed: int = 42

    def validate(self):
        if not 8 <= self.scan_n <= MAX_COUNT:
            raise InputFormatError(f"scan resolution must lie in [8, {MAX_COUNT}]")
        if not 1 <= self.trials <= MAX_COUNT:
            raise InputFormatError(f"trial count must lie in [1, {MAX_COUNT}]")


# ---------------------------------------------------------------------------
# serialization helpers: complex -> [re, im]

def _c(z):
    z = complex(z)
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _cv(v):
    return [_c(z) for z in np.asarray(v, np.complex128)]


def _fv(v):
    return [float(x) + 0.0 for x in np.asarray(v, float)]


def _mat(m):
    return [_fv(row) for row in np.asarray(m, float)]


# ---------------------------------------------------------------------------
# input parsing

def _has_bool(x):
    return isinstance(x, bool) or (
        isinstance(x, list) and any(_has_bool(y) for y in x))


def _numeric(doc, key, shape):
    """``doc[key]`` as a finite float array of the given shape."""
    if _has_bool(doc[key]):
        raise InputFormatError(f"{key} holds a boolean, not a number")
    try:
        a = np.asarray(doc[key], float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"{key} is not numeric: {exc}") from exc
    if a.shape != shape:
        raise InputFormatError(f"{key} must have shape {shape}, not {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputFormatError(f"{key} holds a non-finite entry")
    return a


def load_input(path):
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read input: {exc}") from exc
    except yaml.YAMLError as exc:
        raise InputFormatError(f"input is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError("input must be a mapping")
    has_matrix = "theta_matrix" in doc
    has_vectors = "epsilon" in doc or "theta" in doc
    if has_matrix and has_vectors:
        raise InputFormatError("give either theta_matrix or epsilon/theta, not both")
    if has_matrix:
        tv = nc.vectors_from_tensor(_numeric(doc, "theta_matrix", (4, 4)))
    elif "epsilon" not in doc or "theta" not in doc:
        raise InputFormatError("need both epsilon and theta 3-vectors")
    else:
        tv = nc.ThetaVectors(_numeric(doc, "epsilon", (3,)), _numeric(doc, "theta", (3,)))
    # a finite |K|^2 keeps every scale ** 2 finite, since scale <= |K|
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(tv.epsilon ** 2 + tv.theta ** 2)):
            raise InputFormatError("|K|^2 = sum(theta_i^2 + epsilon_i^2) overflows")
    return tv


# ---------------------------------------------------------------------------
# analysis sections

def _rand_unit_element(rng):
    # bounded Hermitian size: the covariance threshold is absolute, and the
    # rounding error of a sandwich grows with the boost magnitude
    while True:
        q = rng.normal(size=4) + 1j * rng.normal(size=4)
        n = norm(q)
        if abs(n) > 0.2:
            q = q / np.sqrt(n)
            if float(np.sum(np.abs(q) ** 2)) <= 8.0:
                return q


def _running_max(acc, values):
    """``acc = max(acc, v)`` over the values, as a Python float; like that
    loop it skips NaN values."""
    return float(np.fmax.reduce(np.ravel(values), initial=acc))


def _sample_parameters(kind):
    if kind == nc.NONISOTROPIC:
        return [("chi", 0.5 + 0.0j), ("chi", 0.5j), ("chi", 0.5 + 0.5j)]
    return [("w", 1.0 + 0.0j), ("w", 1.0j)]


def _element_for(d, value, sign=1):
    if d.kind == nc.NONISOTROPIC:
        return sg.element(d, chi=value)
    return sg.element(d, w=value, sign=sign)


def _random_parameter(d, rng):
    """One trial parameter and sign; the draws fix the RNG stream."""
    z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
    if d.kind == nc.NONISOTROPIC:
        return z, 1
    return z, (-1, 1)[rng.integers(0, 2)]


def _small_group_section(d, k, cfg, rng, scale):
    tol_resid = 1e-11 * scale
    samples = []
    max_stab = 0.0
    for name, value in _sample_parameters(d.kind):
        L = _element_for(d, value)
        resid = float(sg.stabilizes(L, k))
        max_stab = max(max_stab, resid)
        samples.append({
            "parameter": {name: _c(value)},
            "element": _cv(L),
            "stabilizer_residual": resid,
        })

    # the trials are drawn one by one, in the order that fixes the RNG
    # stream, and then checked as one batch
    n = cfg.trials
    w = np.empty((n, 2), np.complex128)
    sign = np.empty((n, 2), np.int64)
    for i in range(n):
        w[i, 0], sign[i, 0] = _random_parameter(d, rng)
        w[i, 1], sign[i, 1] = _random_parameter(d, rng)
    e1 = _element_for(d, w[:, 0], sign[:, 0])
    e2 = _element_for(d, w[:, 1], sign[:, 1])
    max_stab = _running_max(max_stab, sg.stabilizes(e1, k))
    if d.kind == nc.NONISOTROPIC:
        law = sg.group_law_check(d, w[:, 0], w[:, 1])
    else:
        law = sg.group_law_check(d, (w[:, 0], sign[:, 0]), (w[:, 1], sign[:, 1]))
    group_law = _running_max(0.0, law)
    abelian = _running_max(0.0, np.max(np.abs(mul(e1, e2) - mul(e2, e1)), axis=-1))

    w = np.empty(n, np.complex128)
    sign = np.empty(n, np.int64)
    E, B = np.empty((n, 3)), np.empty((n, 3))
    for i in range(n):
        w[i], sign[i] = _random_parameter(d, rng)
        E[i], B[i] = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    L = _element_for(d, w, sign)
    invariance = _running_max(0.0, sg.verify_constitutive_invariance(k, L, E, B))

    # a rotation about a generic fixed axis must fail to stabilize
    nonmember = max(
        float(sg.stabilizes(lorentz.rotation(axis, 0.5), k))
        for axis in ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0))
    )

    section = {
        "kind": d.kind,
        "sample_elements": samples,
        "max_stabilizer_residual": max_stab,
        "group_law_defect": group_law,
        "abelian_defect": abelian,
        "max_invariance_residual": invariance,
        "nonmember_rotation_residual": nonmember,
    }
    if d.kind == nc.NONISOTROPIC:
        section["phi_hat"] = _cv(d.phi_hat)
        section["sqrt_square"] = _c(d.sqrt_square)
    else:
        section["phi"] = _cv(d.phi)
    checks = {
        "stabilizer": max_stab <= tol_resid,
        "group_law": group_law <= tol_resid,
        "abelian": abelian <= tol_resid,
        "invariance": invariance <= 1e-11 * scale ** 2,
        "distinguishes_nonmembers": nonmember >= 1e-4 * min(scale, 1e4),
    }
    return section, checks


def _covariance_check(k, cfg, rng, scale):
    n = cfg.trials
    L = np.empty((n, 4), np.complex128)
    E, B = np.empty((n, 3)), np.empty((n, 3))
    for i in range(n):
        L[i] = _rand_unit_element(rng)
        E[i], B[i] = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    worst = _running_max(0.0, ct.covariant_transport_check(k, L, E, B))
    return worst, worst <= 1e-11 * scale ** 2


def _canonical_section(d, k, scale):
    if d.kind == nc.NONISOTROPIC:
        L, k_can = sg.canonical_form(k)
        resid = float(np.max(np.abs(lorentz.act_vector(L, d.phi_hat).imag)))
    else:
        L, k_can = sg.canonical_form_isotropic(k)
        target = np.array([1.0, -1.0j, 0.0])
        resid = float(np.max(np.abs(lorentz.act_vector(L, d.phi) - target)))
    drift = abs(complex(k_can @ k_can) - complex(k @ k))
    section = {
        "element": _cv(L),
        "k_canonical": _cv(k_can),
        "reduction_residual": resid,
        "k_square_drift": drift,
    }
    ok = resid <= 1e-10 * scale and drift <= 1e-11 * scale ** 2
    return section, ok


def _factorization_section(d, scale):
    if d.kind == nc.NONISOTROPIC:
        param = {"chi": _c(0.5 + 0.5j)}
        L = sg.element(d, chi=0.5 + 0.5j)
    else:
        param = {"w": _c(1.0)}
        L = sg.element(d, w=1.0)
    rot, bst = lorentz.factorize(L)
    defect = float(np.max(np.abs(mul(rot, bst) - L)))
    section = {
        "of_parameter": param,
        "rotation": _cv(rot),
        "boost": _cv(bst),
        "recomposition_defect": defect,
    }
    return section, defect <= 1e-11 * scale


def _duality_section(k, cfg, rng):
    E, B = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    f = ct.f_vector(E, B)
    h = ct.h_from_f(f, k)
    state = du.gr_from_fh(f, h)
    chis, residuals = du.duality_scan(state, k, cfg.scan_n)
    peak = float(residuals.max())

    quarter_res = []
    for j in range(4):
        rotated, k_rot = du.dual_rotate(state, k, j * np.pi / 2.0)
        quarter_res.append(du.constitutive_residual_gr(rotated, k_rot))
    zeros_max = max(quarter_res)

    dist = np.abs((chis + np.pi / 4) % (np.pi / 2) - np.pi / 4)
    far = dist >= np.pi / 36
    offgrid_min = float(residuals[far].min()) if far.any() else 0.0

    section = {
        "scan_n": cfg.scan_n,
        "quarter_turn_residuals": quarter_res,
        "offgrid_min_residual": offgrid_min,
        "peak_residual": peak,
        "table": np.column_stack((chis, residuals)).tolist(),
    }
    if peak == 0.0:
        checks = {"duality_zeros": zeros_max <= 1e-13, "duality_discrete": True}
    else:
        checks = {
            "duality_zeros": zeros_max <= 1e-11 * max(1.0, peak),
            "duality_discrete": offgrid_min >= 1e-6 * peak,
        }
    return section, checks


# ---------------------------------------------------------------------------

def run_analysis(cfg):
    """Run the full analysis; returns (report dict, exit code)."""
    cfg.validate()
    tv = load_input(cfg.input_path)
    rng = np.random.default_rng(cfg.seed)

    k = nc.k_from_vectors(tv)
    inv = nc.invariants(k)
    kind = nc.classify(k)
    scale = max(1.0, float(np.max(np.abs(k), initial=0.0)))

    report = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
        "input": {
            "path": str(cfg.input_path),
            "epsilon": _fv(tv.epsilon),
            "theta": _fv(tv.theta),
            "theta_matrix": _mat(nc.tensor_from_vectors(tv)),
        },
        "config": {
            "scan_n": cfg.scan_n,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "classify_tol": TOL.classify,
        },
        "k_vector": _cv(k),
        "invariants": {
            "k_square": _c(inv.square),
            "theta_sq_minus_eps_sq": inv.re_part + 0.0,
            "theta_dot_eps": -0.5 * inv.im_part + 0.0,
        },
        "classification": kind,
    }

    checks = {}
    if kind == nc.ZERO:
        report["note"] = ("zero noncommutativity: the stabilizer is the full "
                          "Lorentz group and continuous dual rotations survive")
    else:
        d = sg.describe(k)
        small, small_checks = _small_group_section(d, k, cfg, rng, scale)
        checks.update(small_checks)
        report["small_group"] = small

        cov_worst, cov_ok = _covariance_check(k, cfg, rng, scale)
        report["covariant_transport_residual"] = cov_worst
        checks["full_covariance"] = cov_ok

        canonical, canon_ok = _canonical_section(d, k, scale)
        report["canonical_form"] = canonical
        checks["canonical_form"] = canon_ok

        fact, fact_ok = _factorization_section(d, scale)
        report["factorization"] = fact
        checks["factorization"] = fact_ok

    report["duality"], dual_checks = _duality_section(k, cfg, rng)
    checks.update(dual_checks)
    report["checks"] = checks

    ok = all(report["checks"].values())
    report["status"] = "pass" if ok else "fail"

    with open(cfg.report_path, "w") as fh:
        yaml.dump(report, fh, Dumper=_DUMPER, sort_keys=False)
    if cfg.csv_path:
        with open(cfg.csv_path, "w") as fh:
            fh.write("chi,residual\n")
            for chi, r in report["duality"]["table"]:
                fh.write(f"{chi:.12g},{r:.12g}\n")

    return report, 0 if ok else 1


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nced",
        description="Residual Lorentz symmetry analyzer for noncommutative "
                    "electrodynamics constitutive relations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze one noncommutativity input file")
    an.add_argument("--input", required=True, help="YAML input path")
    an.add_argument("--report", required=True, help="YAML report output path")
    an.add_argument("--csv", default=None, help="optional CSV path for the duality scan")
    an.add_argument("--scan-n", type=int, default=360, help="duality scan resolution")
    an.add_argument("--trials", type=int, default=100, help="random trial count")
    an.add_argument("--seed", type=int, default=42, help="RNG seed")
    return parser


def main(argv=None):
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        print(f"input error: unrecognized arguments: {' '.join(unknown)}", file=sys.stderr)
        return 2
    cfg = AnalysisConfig(
        input_path=args.input,
        report_path=args.report,
        csv_path=args.csv,
        scan_n=args.scan_n,
        trials=args.trials,
        seed=args.seed,
    )
    try:
        report, code = run_analysis(cfg)
    except (InputFormatError, NotAntisymmetricError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NcedError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1
    n_pass = sum(report["checks"].values())
    print(f"{report['status']}: {report['classification']}; "
          f"checks {n_pass}/{len(report['checks'])}; report {cfg.report_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
