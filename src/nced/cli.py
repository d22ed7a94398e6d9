"""Batch analyzer: classify a noncommutativity input, construct and verify
its residual Lorentz group, reduce it to canonical form and scan the dual
rotation, writing a structured YAML report (optionally a CSV of the scan).

Input file (YAML): either a 4x4 ``theta_matrix`` or a pair of 3-vectors
``epsilon`` / ``theta`` (mutually exclusive).

Exit codes: 0 all checks pass (or the zero-input note), 1 a physics check
failed, 2 malformed input (including non-finite or boolean entries, an
|K|^2 that overflows a float, ``--trials`` or ``--scan-n`` above
``MAX_COUNT``, a negative ``--seed``, a ``--report`` or ``--csv`` path that
cannot be written, an input file that is not valid UTF-8 or UTF-16, and
unknown options).

The sections below only compute report values; every pass bound is a row of
``nced.checks.verdicts``.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

# Loading numpy starts OpenBLAS's pool of nproc - 1 worker threads, about 70 ms
# of a one-shot run, and no nced kernel is large enough to use them (every BLAS
# call is a dot of 3-vectors; one thread gives the same bits). So the CLI loads
# numpy with one BLAS thread, unless the user chose a count. Where numpy is
# loaded already, the variable would reach only child processes: leave it.
if ("numpy" not in sys.modules
        and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import yaml

from . import __version__
from . import checks
from . import constitutive as ct
from . import duality as du
from . import lorentz
from . import noncomm as nc
from . import smallgroup as sg
from .algebra import mul, norm
from .errors import InputFormatError, NcedError, NotAntisymmetricError
from .tolerances import DEFAULT as TOL

# the trial checks allocate arrays proportional to their count; the scan holds
# about 32 B per angle (its angles, residuals and table) plus one block
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
        if self.seed < 0:
            raise InputFormatError("seed must be a non-negative integer")


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


_NON_FINITE = {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}


def _yaml_float(x):
    """``x`` as PyYAML's ``SafeRepresenter.represent_float`` writes it."""
    text = repr(x).lower()
    if text in _NON_FINITE:
        return _NON_FINITE[text]
    # a plain float needs a dot: PyYAML writes 1e+16 as 1.0e+16
    if "." not in text and "e" in text:
        text = text.replace("e", ".0e", 1)
    return text


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
        # bytes, so that PyYAML detects the encoding and reports a bad one
        with open(path, "rb") as fh:
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
    # a finite |K|^2 keeps the squared bounds of nced.checks finite
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(tv.epsilon ** 2 + tv.theta ** 2)):
            raise InputFormatError("|K|^2 = sum(theta_i^2 + epsilon_i^2) overflows")
    return tv


# ---------------------------------------------------------------------------
# analysis sections

# The trials are drawn in bulk, but from the stream exactly as one call per
# draw would take it: ``rng.uniform(lo, hi)`` and ``rng.random()`` read one
# 64-bit word each, ``lo + (hi - lo)·u`` with u = (word >> 11)·2⁻⁵³. The
# isotropic trials also drew a sign of L, half a word each from PCG64's
# 32-bit buffer; −L acts as L does, so those words are drawn and dropped.

def _uniform(lo, hi, u):
    return lo + (hi - lo) * u


def _parameter(u):
    return _uniform(-1.4, 1.4, u[..., 0]) + 1j * _uniform(-1.4, 1.4, u[..., 1])


def _small_group_trials(kind, n, rng):
    """The small-group trials in stream order: ``n`` group-law pairs ``w2``,
    then ``n`` invariance trials ``(w, E, B)``."""
    if kind == nc.NONISOTROPIC:
        law, inv = rng.random((n, 4)), rng.random((n, 8))
    else:
        # the two signs of a group-law trial share its word 2 of 5; two
        # invariance trials share a sign word, at offset 2 of their 17
        law = np.delete(rng.random((n, 5)), 2, axis=1)
        inv = np.delete(rng.random(8 * n + (n + 1) // 2), np.s_[2::17]).reshape(n, 8)
    # after an odd isotropic count, per-trial draws leave a half-word in the
    # buffer and these leave none; no later draw reads it, because the
    # covariance and duality checks draw only normals and doubles
    fields = _uniform(-1.0, 1.0, inv[:, 2:])
    return _parameter(law.reshape(n, 2, 2)), _parameter(inv[:, :2]), fields[:, :3], fields[:, 3:]


def _elements(z):
    # normal(size=4) is 0 + 1·z, which maps -0.0 to +0.0
    z = z + 0.0
    return z[..., :4] + 1j * z[..., 4:]


# _accepts estimates |norm q| and Σ|qᵢ|² to within about 10·u·Σ|qᵢ|²/|norm q|
# of numpy's values, relative (u = 2⁻⁵³), below 1e-11 for normals under 10;
# only within this relative band of a threshold can the two rules disagree
_ACCEPT_BAND = 1e-9


def _accepts(z):
    """The draw rule of a covariance element q = z[:4] + i·z[4:]:
    |norm q| > 0.2 and Σ|qᵢ/√norm q|² ≤ 8, decided on Python floats."""
    a0, a1, a2, a3, b0, b1, b2, b3 = z.tolist()
    aa = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    bb = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3
    m = math.hypot(aa - bb, 2.0 * (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3))
    if (abs(m - 0.2) > 0.2 * _ACCEPT_BAND
            and abs(aa + bb - 8.0 * m) > 8.0 * m * _ACCEPT_BAND):
        return m > 0.2 and aa + bb <= 8.0 * m
    # near a threshold, numpy's rounding decides, as it did per trial
    q = _elements(z)
    n = norm(q)
    return abs(n) > 0.2 and float(np.sum(np.abs(q / np.sqrt(n)) ** 2)) <= 8.0


def _rand_unit_elements(rng, n):
    """``n`` unit elements L with fields E, B in [-1, 1)³, as one trial after
    another drew them: normals until an element is accepted, then 6 doubles."""
    # bounded Hermitian size: the covariance threshold is absolute, and the
    # rounding error of a sandwich grows with the boost magnitude. The
    # ziggurat takes a variable number of words, so the normals stay per trial.
    z = np.empty((n, 8))
    u = np.empty((n, 6))
    for i in range(n):
        z[i] = rng.standard_normal(8)
        while not _accepts(z[i]):
            z[i] = rng.standard_normal(8)
        u[i] = rng.random(6)
    q = _elements(z)
    fields = _uniform(-1.0, 1.0, u)
    return q / np.sqrt(norm(q))[:, None], fields[:, :3], fields[:, 3:]


def _running_max(acc, values):
    """``acc = max(acc, v)`` over the values, as a Python float; like that
    loop it skips NaN values."""
    return float(np.fmax.reduce(np.ravel(values), initial=acc))


def _samples(kind):
    if kind == nc.NONISOTROPIC:
        return [("chi", 0.5 + 0.0j), ("chi", 0.5j), ("chi", 0.5 + 0.5j)]
    return [("w", 1.0 + 0.0j), ("w", 1.0j)]


def _element_for(d, value):
    if d.kind == nc.NONISOTROPIC:
        return sg.element(d, chi=value)
    return sg.element(d, w=value)


def _small_group_section(d, k, cfg, rng):
    samples = []
    max_stab = 0.0
    for name, value in _samples(d.kind):
        L = _element_for(d, value)
        resid = float(sg.stabilizes(L, k))
        max_stab = max(max_stab, resid)
        samples.append({
            "parameter": {name: _c(value)},
            "element": _cv(L),
            "stabilizer_residual": resid,
        })

    # all trials are drawn first, then checked one batch per check
    w, w_inv, E, B = _small_group_trials(d.kind, cfg.trials, rng)
    e1 = _element_for(d, w[:, 0])
    e2 = _element_for(d, w[:, 1])
    max_stab = _running_max(max_stab, sg.stabilizes(e1, k))
    group_law = _running_max(0.0, sg.group_law_check(d, w[:, 0], w[:, 1]))
    abelian = _running_max(0.0, np.max(np.abs(mul(e1, e2) - mul(e2, e1)), axis=-1))

    L = _element_for(d, w_inv)
    invariance = _running_max(0.0, sg.verify_constitutive_invariance(k, L, E, B))

    section = {
        "kind": d.kind,
        "sample_elements": samples,
        "max_stabilizer_residual": max_stab,
        "group_law_defect": group_law,
        "abelian_defect": abelian,
        "max_invariance_residual": invariance,
        "nonmember_rotation_residual": checks.nonmember_residual(k),
    }
    if d.kind == nc.NONISOTROPIC:
        section["phi_hat"] = _cv(d.phi_hat)
        section["sqrt_square"] = _c(d.sqrt_square)
    else:
        section["phi"] = _cv(d.phi)
    return section


def _covariance_check(k, cfg, rng):
    L, E, B = _rand_unit_elements(rng, cfg.trials)
    return _running_max(0.0, ct.covariant_transport_check(k, L, E, B))


def _canonical_section(d, k):
    L, k_can = sg.canonical_form(k)
    if d.kind == nc.NONISOTROPIC:
        resid = float(np.max(np.abs(lorentz.act_vector(L, d.phi_hat).imag)))
    else:
        target = np.array([1.0, -1.0j, 0.0])
        resid = float(np.max(np.abs(lorentz.act_vector(L, d.phi) - target)))
    return {
        "element": _cv(L),
        "k_canonical": _cv(k_can),
        "reduction_residual": resid,
        "k_square_drift": abs(complex(k_can @ k_can) - complex(k @ k)),
    }


def _factorization_section(d):
    if d.kind == nc.NONISOTROPIC:
        param = {"chi": _c(0.5 + 0.5j)}
        L = sg.element(d, chi=0.5 + 0.5j)
    else:
        param = {"w": _c(1.0)}
        L = sg.element(d, w=1.0)
    rot, bst = lorentz.factorize(L)
    return {
        "of_parameter": param,
        "rotation": _cv(rot),
        "boost": _cv(bst),
        "recomposition_defect": float(np.max(np.abs(mul(rot, bst) - L))),
    }


def _duality_section(k, cfg, rng):
    E, B = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    f = ct.f_vector(E, B)
    h = ct.h_from_f(f, k)
    state = du.gr_from_fh(f, h)
    chis, residuals = du.duality_scan(state, k, cfg.scan_n)

    quarter_res = []
    for j in range(4):
        rotated, k_rot = du.dual_rotate(state, k, j * np.pi / 2.0)
        quarter_res.append(du.constitutive_residual_gr(rotated, k_rot))

    return {
        "scan_n": cfg.scan_n,
        "quarter_turn_residuals": quarter_res,
        "offgrid_min_residual": checks.offgrid_min(chis, residuals),
        "peak_residual": float(residuals.max()),
        "table": np.column_stack((chis, residuals)),
    }


def _blocks(table):
    """``table`` in slices of ``du.SCAN_BLOCK`` rows, so that no writer builds
    a list or string of every row."""
    for a in range(0, len(table), du.SCAN_BLOCK):
        yield table[a:a + du.SCAN_BLOCK]


def _csv_rows(block):
    """The CSV lines ``f"{chi:.12g},{r:.12g}\\n"`` of a block, in one ``%``."""
    return ("%.12g,%.12g\n" * len(block)) % tuple(block.ravel().tolist())


# ---------------------------------------------------------------------------

def run_analysis(cfg):
    """Run the full analysis; returns (report dict, exit code).

    The report's ``duality.table`` is the ``(scan_n, 2)`` float array of
    ``[chi, residual]`` rows, not a list; every other value is a plain
    Python value.
    """
    cfg.validate()
    tv = load_input(cfg.input_path)
    rng = np.random.default_rng(cfg.seed)

    k = nc.k_from_vectors(tv)
    inv = nc.invariants(k)
    kind = nc.classify(k)

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

    if kind == nc.ZERO:
        report["note"] = ("zero noncommutativity: the stabilizer is the full "
                          "Lorentz group and continuous dual rotations survive")
    else:
        d = sg.describe(k)
        report["small_group"] = _small_group_section(d, k, cfg, rng)
        report["covariant_transport_residual"] = _covariance_check(k, cfg, rng)
        report["canonical_form"] = _canonical_section(d, k)
        report["factorization"] = _factorization_section(d)

    report["duality"] = _duality_section(k, cfg, rng)
    report["checks"] = checks.verdicts(report, k)

    ok = all(report["checks"].values())
    report["status"] = "pass" if ok else "fail"

    # PyYAML's representer builds one node per float, so the scan table is
    # written here, in the bytes it would write, in place of an empty one
    table = report["duality"]["table"]
    rest = {**report, "duality": {**report["duality"], "table": []}}
    try:
        with open(cfg.report_path, "w") as fh:
            head, empty, tail = yaml.dump(
                rest, Dumper=_DUMPER, sort_keys=False).rpartition("\n  table: []\n")
            assert empty, "the dumped report has no empty duality table"
            fh.write(head + "\n  table:\n")
            for block in _blocks(table):
                fh.write("".join(f"  - - {_yaml_float(chi)}\n    - {_yaml_float(r)}\n"
                                 for chi, r in block.tolist()))
            fh.write(tail)
    except OSError as exc:
        raise InputFormatError(f"cannot write report: {exc}") from exc
    if cfg.csv_path:
        try:
            with open(cfg.csv_path, "w") as fh:
                fh.write("chi,residual\n")
                for block in _blocks(table):
                    fh.write(_csv_rows(block))
        except OSError as exc:
            raise InputFormatError(f"cannot write CSV: {exc}") from exc

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
