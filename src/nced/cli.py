"""Batch analyzer: classify a noncommutativity input, construct and verify
its residual Lorentz group, reduce it to canonical form and scan the dual
rotation, writing a structured YAML report (optionally a CSV of the scan).

``analyze`` builds one report in memory and opens no file, ``write_report``
and ``write_csv`` write it through ``_write``, and ``run_analysis`` is load,
analyze, write. perfbench's tracer wraps this module's functions by name and
times the writes through the ``open`` that ``_write`` looks up here, so all of
them stay in this module.

Input file (YAML): either a 4x4 ``theta_matrix`` or a pair of 3-vectors
``epsilon`` / ``theta`` (mutually exclusive).

Exit codes: 0 all checks pass (or the zero-input note), 1 a physics check
failed (the report's status is ``fail``; every exit 1 writes the report),
2 malformed input (including non-finite or boolean entries, an |K|^2
that overflows a float, ``--trials`` or ``--scan-n`` above ``MAX_COUNT``, a
negative ``--seed``, a ``--report`` or ``--csv`` path that cannot be opened,
that fails while it is written (as on a full disk) or that names the input or
the other output, also by a symbolic or hard link, an input file that is not
valid UTF-8 or UTF-16, an input nested too deeply for the parser, a top-level
key other than the three above, and unknown options).

The sections below only compute report values; every pass bound of a report
row lives in ``nced.checks``, whose docstring names the thresholds outside it.
"""

import argparse
import os
import random
import sys
from datetime import datetime, timezone
from itertools import chain, repeat, starmap

# Loading numpy starts OpenBLAS's pool of nproc - 1 worker threads, about 70 ms
# of a one-shot run, and nced makes no BLAS call (every dot is algebra.cdot's),
# so the pool has no work. So the CLI loads numpy with one BLAS thread, unless
# the user chose a count. Where numpy is loaded already, the variable would
# reach only child processes: leave it.
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
from .algebra import cabs, cdot, mul
from .errors import InputFormatError

# bounds the time of a report: the trial checks hold one block of
# du.SCAN_BLOCK trials, and the scan about 32 B per angle (its angles,
# residuals and table) plus one block
MAX_COUNT = 100_000

# libyaml's emitter writes the same bytes as the pure-Python one, faster
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


# ---------------------------------------------------------------------------
# serialization helpers

def _floats(x):
    """The number or array ``x`` as (nested lists of) Python floats, as the
    report writes them: a complex number as ``[re, im]``, -0.0 as 0.0."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        x = np.stack([x.real, x.imag], axis=-1)
    return (x.astype(float) + 0.0).tolist()


_NON_FINITE = {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}


def _yaml_float(x):
    """``x`` as PyYAML's ``SafeRepresenter.represent_float`` writes it."""
    text = repr(x)
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
        # bytes, so that PyYAML detects the encoding and reports a bad one.
        # The pure-Python loader stays: its recursion ends in RecursionError at
        # any depth, where libyaml's CSafeLoader (x86_64, PyYAML 6) parses
        # 10 000 levels but dies with SIGSEGV at 100 000.
        with open(path, "rb") as fh:
            return _theta_vectors(yaml.safe_load(fh))
    except OSError as exc:
        raise InputFormatError(f"cannot read input: {exc}") from exc
    except yaml.YAMLError as exc:
        raise InputFormatError(f"input is not valid YAML: {exc}") from exc
    except RecursionError as exc:
        # PyYAML's parser and _has_bool recurse once per level of nesting
        raise InputFormatError("input is nested too deeply") from exc


def _theta_vectors(doc):
    if not isinstance(doc, dict):
        raise InputFormatError("input must be a mapping")
    unknown = doc.keys() - {"theta_matrix", "epsilon", "theta"}
    if unknown:
        raise InputFormatError(f"unknown key {', '.join(sorted(map(repr, unknown)))}")
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

def _draws(rng, n, width):
    """``n`` rows of ``width`` doubles, each from one ``rng.random()`` call in
    row order, in blocks of at most ``du.SCAN_BLOCK`` rows."""
    for start in range(0, n, du.SCAN_BLOCK):
        size = width * min(du.SCAN_BLOCK, n - start)
        yield np.fromiter(starmap(rng.random, repeat((), size)), float, size).reshape(-1, width)


def _parameter(u):
    return (-1.4 + 2.8 * u[..., 0]) + 1j * (-1.4 + 2.8 * u[..., 1])


# the parameters w of the sample elements, and the one factorized
_SAMPLES = [0.5 + 0.0j, 0.5j, 0.5 + 0.5j]
_FACTORIZED = 0.5 + 0.5j


def _small_group_section(d, k, trials, seed):
    """The small group's report section: the sample elements with their
    stabilizer residuals, and the largest residual of each check over the
    ``trials`` random trials of ``seed``.

    The trials come from one ``random.Random`` seeded with ``seed``, in
    program order: the group-law rows (p₁, p₂), then the invariance rows
    (p, E, B). They are drawn and checked one block of ``_draws`` at a time,
    and each check keeps only its block's ``np.max`` (not max or np.fmax: a
    NaN residual must reach its check and fail). Every step is elementwise
    or a reduction within a row, so the maxima have the bits of the whole
    batch checked at once, and the memory is one block's, plus one maximum
    per block.
    """
    samples = sg.element(d, _SAMPLES)
    stab = sg.stabilizes(samples, k)
    stab_max, group_law, abelian = [np.max(stab)], [], []
    rng = random.Random(seed)
    for u in _draws(rng, trials, 4):
        p = _parameter(u.reshape(-1, 2, 2))
        e1, e2 = sg.element(d, p[:, 0]), sg.element(d, p[:, 1])
        e12 = mul(e1, e2)
        stab_max.append(np.max(sg.stabilizes(e1, k)))
        group_law.append(np.max(sg.group_law_check(d, e12, p[:, 0] + p[:, 1])))
        abelian.append(np.max(cabs(e12 - mul(e2, e1))))
    invariance = []
    for u in _draws(rng, trials, 8):
        L, E, B = sg.element(d, _parameter(u)), -1.0 + 2.0 * u[:, 2:5], -1.0 + 2.0 * u[:, 5:]
        invariance.append(np.max(sg.verify_constitutive_invariance(k, L, E, B)))

    return {
        "kind": d.kind,
        "sample_elements": [
            {"parameter": {"w": value}, "element": e, "stabilizer_residual": r}
            for value, e, r in zip(_floats(_SAMPLES), _floats(samples), stab.tolist())],
        "max_stabilizer_residual": float(np.max(stab_max)),
        "group_law_defect": float(np.max(group_law)),
        "abelian_defect": float(np.max(abelian)),
        "max_invariance_residual": float(np.max(invariance)),
        "nonmember_rotation_residual": checks.nonmember_residual(k),
        "phi": _floats(d.phi),
        "phi_square": _floats(d.square),
    }


def _covariance_check(k):
    """The largest covariance residual over a fixed design: 15 elements (the
    rotations about the three lab axes at half-angle 0.7, the boosts along
    them at 1.3, and the nine rotation·boost products), each with the field
    pairs (x, y), (y, z), (z, x) and ``duality``'s generic pair.

    h_from_f forms only bilinear dots, which the complex-orthogonal action of
    every unit element preserves, so the residual is rounding only, whatever
    the element (tests/test_constitutive.py proves it with sympy). Rotations
    are real orthogonal and preserve a Hermitian dot as well, so it is the
    boosts that reject a map built on one. Their Σ|qᵢ|² = cosh 2.6 ≈ 6.8 is
    the size of the largest elements the check once drew at random (≤ 8).
    """
    rot = lorentz.exp(0.7, np.eye(3))
    bst = lorentz.exp(1.3j, np.eye(3))
    L = np.concatenate([rot, bst, mul(rot[:, None], bst).reshape(9, 4)])
    E = np.vstack([np.eye(3), du.GENERIC_E])
    B = np.vstack([np.roll(np.eye(3), 1, axis=1), du.GENERIC_B])
    return float(np.max(ct.covariant_transport_check(k, L[:, None], E, B)))


def _canonical_section(d, k):
    L, k_can = sg.canonical_form(k)
    if d.kind == nc.NONISOTROPIC:
        resid = float(np.max(cabs(k_can[1:])))
    else:
        resid = float(np.max(cabs(k_can - [1.0, 1.0j, 0.0])))
    return {
        "element": _floats(L),
        "k_canonical": _floats(k_can),
        "reduction_residual": resid,
        "k_square_drift": abs(complex(cdot(k_can, k_can)) - complex(cdot(k, k))),
    }


def _factorization_section(d):
    L = sg.element(d, _FACTORIZED)
    rot, bst = lorentz.factorize(L)
    return {
        "of_parameter": {"w": _floats(_FACTORIZED)},
        "rotation": _floats(rot),
        "boost": _floats(bst),
        "recomposition_defect": float(np.max(cabs(mul(rot, bst) - L))),
    }


def _duality_section(k, scan_n):
    state = du.state(ct.f_vector(du.GENERIC_E, du.GENERIC_B), k)
    chis, residuals = du.duality_scan(state, k, scan_n)
    rotated, k_rot = du.dual_rotate(state, k, np.arange(4) * np.pi / 2.0)

    return {
        "scan_n": scan_n,
        "quarter_turn_residuals": du.constitutive_residual_gr(rotated, k_rot).tolist(),
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

@np.errstate(all="ignore")
def analyze(tv, path, scan_n, trials, seed):
    """The report of the noncommutativity vectors ``tv``, built in memory:
    no file is read or written, and ``path`` is only echoed as
    ``input.path``. A count out of range or a negative seed raises
    InputFormatError. numpy's floating-point warnings are off: a NaN or inf
    value fails its row of ``checks``.

    ``duality.table`` is the ``(scan_n, 2)`` float array of ``[chi,
    residual]`` rows, not a list; every other value is a plain Python value.
    """
    if not 8 <= scan_n <= MAX_COUNT:
        raise InputFormatError(f"scan resolution must lie in [8, {MAX_COUNT}]")
    if not 1 <= trials <= MAX_COUNT:
        raise InputFormatError(f"trial count must lie in [1, {MAX_COUNT}]")
    if seed < 0:
        raise InputFormatError("seed must be a non-negative integer")

    k = nc.k_from_vectors(tv)
    inv = nc.invariants(k)
    kind = nc.classify(k)

    report = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
        "input": {
            "path": str(path),
            "epsilon": _floats(tv.epsilon),
            "theta": _floats(tv.theta),
            "theta_matrix": _floats(nc.tensor_from_vectors(tv)),
        },
        "config": {
            "scan_n": scan_n,
            "trials": trials,
            "seed": seed,
            "classify_tol": nc.CLASSIFY_TOL,
        },
        "k_vector": _floats(k),
        "invariants": {
            "k_square": _floats(inv.square),
            "theta_sq_minus_eps_sq": _floats(inv.re_part),
            "theta_dot_eps": _floats(-0.5 * inv.im_part),
        },
        "classification": kind,
    }

    if kind == nc.ZERO:
        report["note"] = ("zero noncommutativity: the stabilizer is the full "
                          "Lorentz group and continuous dual rotations survive")
    else:
        d = sg.describe(k)
        report["small_group"] = _small_group_section(d, k, trials, seed)
        report["covariant_transport_residual"] = _covariance_check(k)
        report["canonical_form"] = _canonical_section(d, k)
        report["factorization"] = _factorization_section(d)

    report["duality"] = _duality_section(k, scan_n)
    report["checks"] = checks.verdicts(report, k)
    report["status"] = "pass" if all(report["checks"].values()) else "fail"
    return report


def _write(path, what, parts):
    """Write the strings ``parts`` to ``path``: the CLI's one open for
    writing. An OSError, in the open or in a write, becomes InputFormatError."""
    try:
        with open(path, "w") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise InputFormatError(f"cannot write {what}: {exc}") from exc


def write_report(report, path):
    """Write ``report`` as YAML, in the bytes ``yaml.dump`` would write."""
    # PyYAML's representer builds one node per float, so the scan table is
    # written here, in the bytes it would write, in place of an empty one
    table = report["duality"]["table"]
    rest = {**report, "duality": {**report["duality"], "table": []}}
    head, empty, tail = yaml.dump(
        rest, Dumper=_DUMPER, sort_keys=False).rpartition("\n  table: []\n")
    assert empty, "the dumped report has no empty duality table"
    rows = ("".join(f"  - - {_yaml_float(chi)}\n    - {_yaml_float(r)}\n"
                    for chi, r in block.tolist()) for block in _blocks(table))
    _write(path, "report", chain([head + "\n  table:\n"], rows, [tail]))


def write_csv(table, path):
    """Write the scan ``table`` as ``chi,residual`` rows."""
    _write(path, "CSV", chain(["chi,residual\n"], map(_csv_rows, _blocks(table))))


def run_analysis(args):
    """``nced analyze`` on the parsed options ``args``: load ``args.input``,
    analyze it, write ``args.report`` and, if given, ``args.csv``. Returns
    (report, exit code): 0 when the report passes, 1 when a check fails.
    """
    paths = [os.path.realpath(p) for p in (args.input, args.report, args.csv) if p]
    # an existing path by its file's (st_ino, st_dev), which each hard link shares
    ids = [os.stat(p)[1:3] if os.path.exists(p) else p for p in paths]
    if len(set(ids)) < len(ids):
        raise InputFormatError("--input, --report and --csv must name different files")
    report = analyze(load_input(args.input), args.input, args.scan_n, args.trials, args.seed)
    write_report(report, args.report)
    if args.csv:
        write_csv(report["duality"]["table"], args.csv)
    return report, 0 if report["status"] == "pass" else 1


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
    an.add_argument("--trials", type=int, default=100,
                    help="random small-group trial count")
    an.add_argument("--seed", type=int, default=42, help="seed of the small-group trials")
    return parser


def main(argv=None):
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        print(f"input error: unrecognized arguments: {' '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        report, code = run_analysis(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    n_pass = sum(report["checks"].values())
    print(f"{report['status']}: {report['classification']}; "
          f"checks {n_pass}/{len(report['checks'])}; report {args.report}")
    return code


if __name__ == "__main__":
    sys.exit(main())
