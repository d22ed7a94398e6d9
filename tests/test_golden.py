"""Reports and CSVs stay byte-identical, apart from ``generated_at``, to the
golden files in ``tests/data/golden`` (see the README there). A report that
differs names the keys that moved."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from nced.cli import main
from report_diff import changed_keys, report_diff

GOLDEN = Path(__file__).parent / "data" / "golden"
FLAGS = {"default": [], "trials1": ["--trials", "1"], "trials7": ["--trials", "7"],
         "trials2000": ["--trials", "2000"]}
# a zero input draws no trials
CASES = [(kind, flags) for kind in ("nonisotropic", "isotropic", "zero") for flags in FLAGS
         if kind != "zero" or flags in ("default", "trials2000")]


def body(path):
    return b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"generated_at:"))


def assert_matches_golden(report, name):
    got, want = body(report), (GOLDEN / name).read_bytes()
    if got != want:
        diff = report_diff(yaml.safe_load(want), yaml.safe_load(got))
        pytest.fail(f"{name} differs; changed keys: {changed_keys(diff) or 'none, only bytes'}")


@pytest.mark.parametrize("kind, flags", CASES)
def test_report_matches_golden(kind, flags, tmp_path, monkeypatch):
    # the report echoes the input path, so run where the golden run ran
    monkeypatch.chdir(GOLDEN)
    report = tmp_path / "report.yaml"
    code = main(["analyze", "--input", f"{kind}.yaml", "--report", str(report)] + FLAGS[flags])
    assert code == 0
    assert_matches_golden(report, f"{kind}.{flags}.report.yaml")


def test_scan_csv_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    report, csv = tmp_path / "report.yaml", tmp_path / "scan.csv"
    code = main(["analyze", "--input", "nonisotropic.yaml", "--report", str(report),
                 "--csv", str(csv)])
    assert code == 0
    assert csv.read_bytes() == (GOLDEN / "nonisotropic.scan.csv").read_bytes()
    assert_matches_golden(report, "nonisotropic.default.report.yaml")


def test_scan_across_blocks_matches_golden(tmp_path, monkeypatch):
    # 1500 angles span several scan blocks and end on a partial one
    monkeypatch.chdir(GOLDEN)
    report, csv = tmp_path / "report.yaml", tmp_path / "scan.csv"
    code = main(["analyze", "--input", "nonisotropic.yaml", "--report", str(report),
                 "--csv", str(csv), "--scan-n", "1500"])
    assert code == 0
    assert csv.read_bytes() == (GOLDEN / "nonisotropic.scan1500.csv").read_bytes()
    assert_matches_golden(report, "nonisotropic.scan1500.report.yaml")


@pytest.mark.parametrize("blas_threads", [None, "2"])
@pytest.mark.parametrize("kind", ["nonisotropic", "isotropic", "zero"])
def test_module_entry_point_matches_golden(kind, blas_threads, tmp_path):
    # the real entry point: the lazy package import, __main__ and the CLI's
    # choice of BLAS threads, with the user's thread count or without one
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    report = tmp_path / "report.yaml"
    out = subprocess.run([sys.executable, "-m", "nced", "analyze", "--input", f"{kind}.yaml",
                          "--report", str(report)],
                         cwd=GOLDEN, env=env, capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == b""
    assert_matches_golden(report, f"{kind}.default.report.yaml")
