"""Analyzer CLI: input handling, report content, exit codes, determinism."""

import importlib.util
import inspect
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import nced.cli
from nced.cli import (MAX_COUNT, _csv_rows, _yaml_float, analyze, load_input, main, write_csv,
                      write_report)
from nced import constitutive as ct
from nced import duality as du
from nced import lorentz
from nced import noncomm as nc
from nced import smallgroup as sg
from nced.errors import InputFormatError

ROOT = Path(__file__).resolve().parents[1]


def write_input(path, text):
    path.write_text(text)
    return str(path)


def vectors(text):
    """The noncommutativity vectors of an input in vector form, as
    ``load_input`` reads them, without a file."""
    doc = yaml.safe_load(text)
    return nc.ThetaVectors(np.asarray(doc["epsilon"], float), np.asarray(doc["theta"], float))


def run(tmp_path, text, name="in.yaml", **kw):
    inp = write_input(tmp_path / name, text)
    rep = tmp_path / "report.yaml"
    argv = ["analyze", "--input", inp, "--report", str(rep),
            "--trials", "20", "--scan-n", "360", "--seed", "42"]
    for flag, value in kw.items():
        argv += [f"--{flag}", str(value)]
    code = main(argv)
    return code, rep


def test_nonisotropic_example(tmp_path, capsys):
    code, rep = run(tmp_path, "epsilon: [0.0, 0.0, 0.0]\ntheta: [0.0, 0.0, 1.0]\n")
    assert code == 0
    report = yaml.safe_load(rep.read_text())
    assert report["classification"] == "nonisotropic"
    assert report["status"] == "pass"
    assert all(report["checks"].values())
    assert report["small_group"]["phi"] == [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    assert report["small_group"]["max_stabilizer_residual"] <= 1e-11
    assert report["canonical_form"]["reduction_residual"] <= 1e-10
    assert report["duality"]["offgrid_min_residual"] >= 1e-6 * report["duality"]["peak_residual"]
    assert max(report["duality"]["quarter_turn_residuals"]) <= 1e-11
    out = capsys.readouterr().out
    assert out.startswith("pass: nonisotropic")


def test_isotropic_example(tmp_path):
    code, rep = run(tmp_path, "epsilon: [0.0, -1.0, 0.0]\ntheta: [1.0, 0.0, 0.0]\n")
    assert code == 0
    report = yaml.safe_load(rep.read_text())
    assert report["classification"] == "isotropic"
    assert all(report["checks"].values())


def test_zero_tensor_note(tmp_path):
    text = "theta_matrix: [[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]\n"
    code, rep = run(tmp_path, text)
    assert code == 0
    report = yaml.safe_load(rep.read_text())
    assert report["classification"] == "zero"
    assert "note" in report
    assert "small_group" not in report
    assert report["duality"]["peak_residual"] == 0.0


def test_non_antisymmetric_exit_2(tmp_path, capsys):
    # the second matrix is symmetric with entries far below 1: the bound on
    # |T + T^T| is relative to max|T| at every scale
    for rows in ("[0,1,0,0],[1,0,0,0],[0,0,0,0],[0,0,0,0]",
                 "[0,0,0,0],[0,0,3.0e-13,0],[0,3.0e-13,0,0],[0,0,0,0]"):
        code, _ = run(tmp_path, f"theta_matrix: [{rows}]\n")
        assert code == 2
        assert "input error: matrix is not antisymmetric" in capsys.readouterr().err


def test_both_forms_rejected(tmp_path, capsys):
    text = ("theta_matrix: [[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]\n"
            "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n")
    code, _ = run(tmp_path, text)
    assert code == 2
    capsys.readouterr()
    # a key of neither form is rejected, even beside a complete pair
    for extra, key in (("seed: 5\n", "'seed'"), ("theta_matrx: [[0]]\n", "'theta_matrx'"),
                       ("1: 2\nz: 0\n", "'z', 1")):
        code, rep = run(tmp_path, "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n" + extra)
        assert code == 2
        assert not rep.exists()
        assert capsys.readouterr().err == f"input error: unknown key {key}\n"


def test_missing_vector_rejected(tmp_path):
    code, _ = run(tmp_path, "epsilon: [0, 0, 1]\n")
    assert code == 2


def test_bad_yaml_rejected(tmp_path):
    code, _ = run(tmp_path, "theta: [0, 0, 1\n")
    assert code == 2


def test_input_not_utf8_exit_2(tmp_path, capsys):
    inp = tmp_path / "in.yaml"
    inp.write_bytes(b"epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n# \xff\xfe\x80\n")
    rep = tmp_path / "report.yaml"
    assert main(["analyze", "--input", str(inp), "--report", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: input is not valid YAML: ")
    assert err.count("error") == 1
    assert not rep.exists()


def test_matrix_input_matches_vector_input(tmp_path):
    tv = nc.ThetaVectors(np.array([0.1, -0.2, 0.3]), np.array([0.5, 0.0, -0.4]))
    t = nc.tensor_from_vectors(tv)
    rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in t)
    got = load_input(write_input(tmp_path / "m.yaml", f"theta_matrix: [{rows}]\n"))
    assert np.allclose(got.epsilon, tv.epsilon, atol=0)
    assert np.allclose(got.theta, tv.theta, atol=0)


def test_csv_emission(tmp_path):
    report = analyze(vectors("epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n"), "in.yaml",
                     scan_n=36, trials=5, seed=42)
    assert report["status"] == "pass"
    csv = tmp_path / "scan.csv"
    write_csv(report["duality"]["table"], csv)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "chi,residual"
    assert len(lines) == 37


def strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("generated_at:")
    )


def test_byte_determinism(tmp_path):
    text = "epsilon: [0.2, 0.0, 0.1]\ntheta: [0.0, 0.3, 1.0]\n"
    _, rep1 = run(tmp_path, text, name="a.yaml")
    body1 = strip_timestamp(rep1.read_text())
    rep1.unlink()
    _, rep2 = run(tmp_path, text, name="a.yaml")
    body2 = strip_timestamp(rep2.read_text())
    assert body1 == body2


def test_seed_changes_trials_not_verdict(tmp_path):
    text = "epsilon: [0.2, 0.0, 0.1]\ntheta: [0.0, 0.3, 1.0]\n"
    code1, rep = run(tmp_path, text, seed=7)
    report = yaml.safe_load(rep.read_text())
    assert code1 == 0 and report["status"] == "pass"


def test_module_entry_point_version():
    out = subprocess.run(
        [sys.executable, "-m", "nced", "--version"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    assert "nced" in out.stdout


def test_negative_zero_invariant_is_written_as_zero(tmp_path):
    # theta . eps is +0.0 here, so -0.5 * im_part is -0.0; the report writes 0.0
    text = "epsilon: [0, 0, 0]\ntheta: [0, 0, 2]\n"
    assert np.signbit(-0.5 * nc.invariants(nc.k_from_vectors(vectors(text))).im_part)
    code, rep = run(tmp_path, text)
    assert code == 0
    assert "  theta_dot_eps: 0.0\n" in rep.read_text()
    value = yaml.safe_load(rep.read_text())["invariants"]["theta_dot_eps"]
    assert value == 0.0 and not np.signbit(value)


def test_zero_k_reported_as_full_group(tmp_path, capsys):
    code, rep = run(tmp_path, "epsilon: [0, 0, 0]\ntheta: [0, 0, 0]\n")
    assert code == 0
    report = yaml.safe_load(rep.read_text())
    assert "full" in report["note"] and "Lorentz" in report["note"]


NON_FINITE = [
    "epsilon: [.nan, 0, 0]\ntheta: [0, 0, 1]\n",
    "epsilon: [0, 0, 0]\ntheta: [0, -.inf, 1]\n",
    "epsilon: [0, 0, 0]\ntheta: ['nan', 0, 1]\n",
    "theta_matrix: [[0,0,0,0],[0,0,-.inf,0],[0,.inf,0,0],[0,0,0,0]]\n",
    "theta_matrix: [[0,0,0,0],[0,0,.nan,0],[0,0,0,0],[0,0,0,0]]\n",
]

BOOLEAN = [
    "epsilon: [true, 0, 0]\ntheta: [0, 1, 0]\n",
    "epsilon: [0, 0, 0]\ntheta: [0, 0, false]\n",
    "theta_matrix: [[0,0,0,0],[0,0,-1,0],[0,true,0,0],[0,0,0,0]]\n",
]

# |K|^2 overflows a float although every entry is finite (the matrix is the
# first input in matrix form), and an integer too large for a float
OVERFLOWING = [
    "epsilon: [1.0e200, 0, 0]\ntheta: [0, 1.0e200, 3]\n",
    "theta_matrix: [[0, -1.0e200, 0, 0], [1.0e200, 0, -3, 1.0e200],"
    " [0, 3, 0, 0], [0, -1.0e200, 0, 0]]\n",
    pytest.param("theta: [1" + "0" * 400 + ", 0, 0]\nepsilon: [0, 0, 0]\n", id="int-401-digits"),
]


# lists nested too deeply for PyYAML's parser, and for _has_bool's recursion
NESTED = [
    pytest.param(f"epsilon: [0, 0, 0]\ntheta: {'[' * depth}1{']' * depth}\n", id=f"nested-{depth}")
    for depth in (450, 2000)
]


@pytest.mark.parametrize("text", NON_FINITE + BOOLEAN + OVERFLOWING + NESTED)
def test_non_finite_or_boolean_input_exit_2(tmp_path, capsys, text):
    # main returns instead of raising, so no traceback is printed
    code, rep = run(tmp_path, text)
    assert code == 2
    assert "input error:" in capsys.readouterr().err
    assert not rep.exists()


def test_numeric_strings_still_accepted(tmp_path):
    code, _ = run(tmp_path, "epsilon: ['0.5', 0, 0]\ntheta: [0, 0, 1]\n")
    assert code == 0


@pytest.mark.parametrize("eps, theta", [
    ("0, 2e-13, 0", "1, 0, 0"),
    ("0, 5e-13, 0", "1, 0, 0"),
    ("0, 9e-13, 0", "1, 0, 0"),
    ("0, 5e-10, 0", "1000, 0, 0"),
    ("3e-13, 0, 3e-13", "0, 2, 0"),
])
def test_canonical_form_of_nearly_real_axis(tmp_path, eps, theta):
    """An axis whose imaginary part is far too short to span a real frame
    takes the one half-turn of every K, and lands on the x axis to far
    below rounding of its size."""
    text = f"epsilon: [{eps}]\ntheta: [{theta}]\n"
    code, rep = run(tmp_path, text)
    assert code == 0
    scale = max(1.0, np.max(np.abs(nc.k_from_vectors(vectors(text)))))
    assert yaml.safe_load(rep.read_text())["canonical_form"]["reduction_residual"] <= 1e-20 * scale


@pytest.mark.parametrize("field", ["trials", "scan_n"])
def test_counts_capped(tmp_path, field):
    # a zero input draws no trials, so a run at the cap is quick
    zero = vectors("epsilon: [0, 0, 0]\ntheta: [0, 0, 0]\n")
    counts = {"scan_n": 360, "trials": 20, "seed": 42}
    assert analyze(zero, "in.yaml", **{**counts, field: MAX_COUNT})["status"] == "pass"
    with pytest.raises(InputFormatError, match=f"must lie in .*{MAX_COUNT}"):
        analyze(zero, "in.yaml", **{**counts, field: MAX_COUNT + 1})
    flag = field.replace("_", "-")
    code, _ = run(tmp_path, "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n", **{flag: MAX_COUNT + 1})
    assert code == 2


def test_tol_option_removed(tmp_path, capsys):
    """The isotropic boundary is fixed; ``--tol`` is an unknown option."""
    code, rep = run(tmp_path, "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n", tol=1e-9)
    assert code == 2
    assert "input error: unrecognized arguments: --tol" in capsys.readouterr().err
    assert not rep.exists()


def table_as_list(report):
    """Make the report's scan table, an array, the list PyYAML represents."""
    report["duality"]["table"] = report["duality"]["table"].tolist()


# a nonisotropic, an isotropic and a zero input
KINDS = [
    "epsilon: [0.2, 0.0, 0.1]\ntheta: [0.0, 0.3, 1.0]\n",
    "epsilon: [0.0, -1.0, 0.0]\ntheta: [1.0, 0.0, 0.0]\n",
    "epsilon: [0, 0, 0]\ntheta: [0, 0, 0]\n",
]


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("text", KINDS)
def test_c_and_python_dumpers_write_the_same_bytes(tmp_path, text):
    report = analyze(vectors(text), "in.yaml", scan_n=360, trials=20, seed=42)
    write_report(report, tmp_path / "r.yaml")
    table_as_list(report)
    fast = yaml.dump(report, Dumper=yaml.CSafeDumper, sort_keys=False)
    assert fast == yaml.dump(report, Dumper=yaml.SafeDumper, sort_keys=False)
    assert fast == (tmp_path / "r.yaml").read_text()


@pytest.mark.parametrize("scan_n", [8, 360, du.SCAN_BLOCK + 1, 2 * du.SCAN_BLOCK + 1, 10_000])
@pytest.mark.parametrize("text", KINDS)
def test_scan_table_written_as_pyyaml_writes_it(tmp_path, text, scan_n):
    """The scan table is written without PyYAML's representer, in its bytes."""
    report = analyze(vectors(text), "in.yaml", scan_n=scan_n, trials=10, seed=42)
    write_report(report, tmp_path / "r.yaml")
    assert report["duality"]["table"].shape == (scan_n, 2)
    table_as_list(report)
    expected = yaml.dump(report, Dumper=yaml.SafeDumper, sort_keys=False)
    # lines, not one string, so a failure names its first line without
    # a character diff of the whole report
    written = (tmp_path / "r.yaml").read_text()
    assert written.splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_csv_rows_match_per_row_format():
    special = [0.0, -0.0, 1e16, 1e-05, 5e-324, float("nan"), float("inf"), float("-inf")]
    bits = np.random.default_rng(1).integers(0, 2**64, size=20_000, dtype=np.uint64)
    block = np.array(special + bits.view(np.float64).tolist()).reshape(-1, 2)
    assert _csv_rows(block) == "".join(f"{chi:.12g},{r:.12g}\n" for chi, r in block.tolist())


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# at the cap the scan peaks at about 1.8 MiB and a report at about 3.1 MiB,
# 32 B per angle plus one block; the whole grid evaluated at once takes about
# 50 MiB, and a list of every table row about 12 MiB more
SCAN_MEMORY = 8 * 2**20


def test_scan_memory_bounded_at_the_cap(tmp_path):
    tv = vectors(KINDS[0])
    k = nc.k_from_vectors(tv)
    f = ct.f_vector([0.3, -0.2, 0.5], [0.1, 0.4, -0.6])
    state = du.gr_from_fh(f, ct.h_from_f(f, k))
    assert traced_peak(lambda: du.duality_scan(state, k, MAX_COUNT)) < SCAN_MEMORY

    def analyze_and_write():
        report = analyze(tv, "in.yaml", scan_n=MAX_COUNT, trials=10, seed=42)
        write_report(report, tmp_path / "r.yaml")
        write_csv(report["duality"]["table"], tmp_path / "s.csv")

    assert traced_peak(analyze_and_write) < SCAN_MEMORY


@pytest.mark.parametrize("text", KINDS[:2])
def test_trial_memory_bounded_at_the_cap(text):
    """The trials are checked one block at a time: all of them at once
    took a traced peak of about 83 MiB at the cap."""
    tv = vectors(text)
    assert traced_peak(lambda: analyze(tv, "in.yaml", scan_n=360, trials=MAX_COUNT, seed=42)) \
        < SCAN_MEMORY


@pytest.mark.parametrize("text", KINDS)
def test_analyze_is_pure(tmp_path, monkeypatch, text):
    """``analyze`` opens no file, and ``write_report`` of its report writes
    the bytes that ``nced analyze`` writes for the same input and flags."""
    code, rep = run(tmp_path, text)
    assert code == 0
    inp = str(tmp_path / "in.yaml")
    tv = load_input(inp)

    def no_file(*args, **kwargs):
        raise AssertionError(f"analyze opened {args[0]}")

    with monkeypatch.context() as m:
        m.setattr(nced.cli, "open", no_file, raising=False)
        report = analyze(tv, inp, scan_n=360, trials=20, seed=42)
    write_report(report, tmp_path / "analyze.yaml")
    written = strip_timestamp((tmp_path / "analyze.yaml").read_text())
    assert written.splitlines() == strip_timestamp(rep.read_text()).splitlines()


def test_yaml_float_matches_pyyaml():
    special = [0.0, -0.0, 1e16, 1e17, 1e-05, -1e-05, -1e+16, 5e-324, -5e-324,
               1.2345678901234568e+17, float("nan"), float("inf"), float("-inf")]
    bits = np.random.default_rng(0).integers(0, 2**64, size=100_000, dtype=np.uint64)
    values = special + bits.view(np.float64).tolist()
    expected = yaml.dump(values, Dumper=yaml.SafeDumper).splitlines()
    assert [f"- {_yaml_float(x)}" for x in values] == expected


@pytest.mark.parametrize("output, name", [("report", "report"), ("csv", "CSV")])
def test_unwritable_output_exit_2(tmp_path, capsys, output, name):
    inp = write_input(tmp_path / "in.yaml", "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n")
    paths = {"report": str(tmp_path / "r.yaml"), "csv": str(tmp_path / "s.csv")}
    paths[output] = str(tmp_path / "missing" / "out")
    code = main(["analyze", "--input", inp, "--report", paths["report"],
                 "--csv", paths["csv"], "--trials", "5"])
    assert code == 2
    assert f"input error: cannot write {name}:" in capsys.readouterr().err


@pytest.mark.parametrize("report, csv", [("in.yaml", None), ("out.yaml", "in.yaml"),
                                         ("out.yaml", "out.yaml"), ("alias.yaml", None)])
def test_output_naming_another_file_exit_2(tmp_path, capsys, monkeypatch, report, csv):
    # relative names and a symbolic link, so that the three are compared as
    # resolved absolute paths
    monkeypatch.chdir(tmp_path)
    text = b"epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n"
    (tmp_path / "in.yaml").write_bytes(text)
    (tmp_path / "alias.yaml").symlink_to("in.yaml")
    argv = ["analyze", "--input", str(tmp_path / "in.yaml"), "--report", report, "--trials", "5"]
    code = main(argv + (["--csv", csv] if csv else []))
    assert code == 2
    assert "input error: --input, --report and --csv must name different files" in \
        capsys.readouterr().err
    assert (tmp_path / "in.yaml").read_bytes() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alias.yaml", "in.yaml"]


def test_negative_seed_exit_2(tmp_path, capsys):
    code, rep = run(tmp_path, "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n", seed=-1)
    assert code == 2
    assert "input error: seed must be a non-negative integer" in capsys.readouterr().err
    assert not rep.exists()


def test_nan_duality_state_exits_1_without_a_report(tmp_path, capsys):
    # K = 1e120·(1, −i, 0): the duality state's residual overflows to NaN,
    # and the scan rejects the state before any report is written. The
    # overflows raise no numpy warning, in process (where the suite makes
    # warnings errors) or on a process's stderr
    text = "epsilon: [0.0, 1.0e120, 0.0]\ntheta: [1.0e120, 0.0, 0.0]\n"
    code, rep = run(tmp_path, text)
    assert code == 1
    assert not rep.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("analysis error: state violates the constitutive pair")
    assert err.count("\n") == 1
    argv = ["analyze", "--input", str(tmp_path / "in.yaml"), "--report", str(rep)]
    proc = subprocess.run([sys.executable, "-m", "nced", *argv], capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


def test_failed_factorization_writes_a_report(tmp_path, capsys, monkeypatch):
    # factorize checks nothing, so a rotation off by a factor still gives a
    # report, whose factorization row fails
    factorize = lorentz.factorize

    def corrupted(L):
        rot, bst = factorize(L)
        return rot * (1 + 1e-6), bst

    monkeypatch.setattr(lorentz, "factorize", corrupted)
    code, rep = run(tmp_path, "epsilon: [0.0, 0.0, 0.0]\ntheta: [0.0, 0.0, 1.0]\n")
    assert code == 1
    report = yaml.safe_load(rep.read_text())
    assert report["status"] == "fail"
    assert [c for c, ok in report["checks"].items() if not ok] == ["factorization"]
    assert capsys.readouterr() == (f"fail: nonisotropic; checks 9/10; report {rep}\n", "")


def test_corrupted_stabilizer_exits_1(tmp_path, capsys, monkeypatch):
    stabilizes = sg.stabilizes
    monkeypatch.setattr(sg, "stabilizes", lambda L, k: stabilizes(L, k) + 1e-3)
    code, rep = run(tmp_path, "epsilon: [0.0, 0.0, 0.0]\ntheta: [0.0, 0.0, 1.0]\n")
    assert code == 1
    report = yaml.safe_load(rep.read_text())
    assert report["status"] == "fail"
    assert [c for c, ok in report["checks"].items() if not ok] == ["stabilizer"]
    assert capsys.readouterr().out == f"fail: nonisotropic; checks 9/10; report {rep}\n"


@pytest.mark.parametrize("kind,text", [
    ("nonisotropic", "epsilon: [0.0, 0.0, 0.0]\ntheta: [0.0, 0.0, 1.0]\n"),
    ("isotropic", "epsilon: [0.0, -1.0, 0.0]\ntheta: [1.0, 0.0, 0.0]\n"),
])
def test_corrupted_canonical_element_exits_1(tmp_path, capsys, monkeypatch, kind, text):
    # canonical_form does not renormalize its element, so the report's
    # canonical_form row is what must reject a non-unit one
    canonical_form = sg.canonical_form

    def corrupted(k):
        L = canonical_form(k)[0] * (1 + 1e-6)
        return L, lorentz.act_vector(L, k)

    monkeypatch.setattr(sg, "canonical_form", corrupted)
    code, rep = run(tmp_path, text)
    assert code == 1
    report = yaml.safe_load(rep.read_text())
    assert report["status"] == "fail"
    assert [c for c, ok in report["checks"].items() if not ok] == ["canonical_form"]
    assert capsys.readouterr().out == f"fail: {kind}; checks 9/10; report {rep}\n"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_cli_spans_are_cli_functions(tmp_path):
    # perfbench/run.py --trace 1 wraps these nced.cli helpers by name, and
    # times the writes through the open it places in nced.cli
    tracer = load_tracer()
    for name in tracer.CLI_SPANS:
        assert callable(getattr(nced.cli, name, None)), name
    inp = write_input(tmp_path / "in.yaml", KINDS[0])
    report, csv = str(tmp_path / "r.yaml"), str(tmp_path / "s.csv")
    traced = tracer.Tracer()
    with traced.installed({report: "cli.report_write", csv: "cli.csv_write"}):
        # the traced main is the one bound in nced.cli
        code = nced.cli.main(["analyze", "--input", inp, "--report", report, "--csv", csv,
                              "--trials", "5"])
    assert code == 0
    spans = [*tracer.CLI_SPANS.values(), "cli.report_write", "cli.csv_write"]
    assert {span: traced.stats.get(span, [0])[0] for span in spans} == dict.fromkeys(spans, 1)


def test_benchmark_layer_metrics_name_nced_functions():
    # a per-layer metric <layer>.<function>.<stat> reads 0 once its kernel
    # is gone, so every traced kernel it names must still exist
    layers = load_tracer().LAYERS
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    kernels = [name.split(".")[:2] for name in names if name.split(".")[0] in layers]
    assert kernels
    for layer, function in kernels:
        module = importlib.import_module(f"nced.{layer}")
        assert inspect.isfunction(getattr(module, function, None)), f"nced.{layer}.{function}"
