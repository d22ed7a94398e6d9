"""Analyzer CLI: input handling, report content, exit codes, determinism."""

import subprocess
import sys

import numpy as np
import pytest
import yaml

from nced.cli import MAX_COUNT, AnalysisConfig, load_input, main, run_analysis
from nced import noncomm as nc
from nced.errors import InputFormatError


def write_input(path, text):
    path.write_text(text)
    return str(path)


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
    phi_hat = np.array([complex(a, b) for a, b in report["small_group"]["phi_hat"]])
    assert np.max(np.abs(phi_hat - [0, 0, 1.0])) <= 1e-12
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
    text = "theta_matrix: [[0,1,0,0],[1,0,0,0],[0,0,0,0],[0,0,0,0]]\n"
    code, _ = run(tmp_path, text)
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_both_forms_rejected(tmp_path):
    text = ("theta_matrix: [[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]\n"
            "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n")
    code, _ = run(tmp_path, text)
    assert code == 2


def test_missing_vector_rejected(tmp_path):
    code, _ = run(tmp_path, "epsilon: [0, 0, 1]\n")
    assert code == 2


def test_bad_yaml_rejected(tmp_path):
    code, _ = run(tmp_path, "theta: [0, 0, 1\n")
    assert code == 2


def test_matrix_input_matches_vector_input(tmp_path):
    tv = nc.ThetaVectors(np.array([0.1, -0.2, 0.3]), np.array([0.5, 0.0, -0.4]))
    t = nc.tensor_from_vectors(tv)
    rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in t)
    got = load_input(write_input(tmp_path / "m.yaml", f"theta_matrix: [{rows}]\n"))
    assert np.allclose(got.epsilon, tv.epsilon, atol=0)
    assert np.allclose(got.theta, tv.theta, atol=0)


def test_csv_emission(tmp_path):
    inp = write_input(tmp_path / "in.yaml", "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n")
    csv = tmp_path / "scan.csv"
    cfg = AnalysisConfig(inp, str(tmp_path / "r.yaml"), csv_path=str(csv),
                         scan_n=36, trials=5)
    _, code = run_analysis(cfg)
    assert code == 0
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


@pytest.mark.parametrize("text", NON_FINITE + BOOLEAN + OVERFLOWING)
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
    """An axis whose imaginary part is too short to span a frame, but
    above the old 1e-13 shortcut, takes the identity reduction."""
    code, rep = run(tmp_path, f"epsilon: [{eps}]\ntheta: [{theta}]\n")
    assert code == 0
    element = yaml.safe_load(rep.read_text())["canonical_form"]["element"]
    assert element == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("field", ["trials", "scan_n"])
def test_counts_capped(tmp_path, field):
    cfg = AnalysisConfig("in.yaml", "out.yaml", **{field: MAX_COUNT})
    cfg.validate()
    setattr(cfg, field, MAX_COUNT + 1)
    with pytest.raises(InputFormatError):
        cfg.validate()
    flag = field.replace("_", "-")
    code, _ = run(tmp_path, "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n", **{flag: MAX_COUNT + 1})
    assert code == 2


def test_tol_option_removed(tmp_path, capsys):
    """The isotropic boundary is fixed; ``--tol`` is an unknown option."""
    code, rep = run(tmp_path, "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n", tol=1e-9)
    assert code == 2
    assert "input error: unrecognized arguments: --tol" in capsys.readouterr().err
    assert not rep.exists()


def test_sign_draw_keeps_rng_stream():
    """The trial sign is drawn as ``(-1, 1)[rng.integers(0, 2)]``; it must
    consume the stream exactly as ``rng.choice([-1, 1])`` did."""
    old, new = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(500):
        assert old.uniform(-1.4, 1.4) == new.uniform(-1.4, 1.4)
        assert int(old.choice([-1, 1])) == (-1, 1)[new.integers(0, 2)]
    assert old.uniform() == new.uniform()


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("text", [
    "epsilon: [0.2, 0.0, 0.1]\ntheta: [0.0, 0.3, 1.0]\n",
    "epsilon: [0.0, -1.0, 0.0]\ntheta: [1.0, 0.0, 0.0]\n",
    "epsilon: [0, 0, 0]\ntheta: [0, 0, 0]\n",
])
def test_c_and_python_dumpers_write_the_same_bytes(tmp_path, text):
    inp = write_input(tmp_path / "in.yaml", text)
    report, _ = run_analysis(AnalysisConfig(inp, str(tmp_path / "r.yaml"), trials=20))
    fast = yaml.dump(report, Dumper=yaml.CSafeDumper, sort_keys=False)
    assert fast == yaml.dump(report, Dumper=yaml.SafeDumper, sort_keys=False)
    assert fast == (tmp_path / "r.yaml").read_text()
