"""Reports and CSVs stay byte-identical, apart from ``generated_at``, to the
golden files in ``tests/data/golden`` (see the README there), also with
numpy's SIMD dispatch turned off and under other OpenBLAS kernels. A report
that differs names the keys that moved."""

import json
import os
import platform
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


# each nonzero golden report and both CSVs, as (report, CSV or None, flags)
PORTABLE = [(f"{kind}.{flags}.report.yaml", None, FLAGS[flags]) for kind, flags in CASES
            if kind != "zero" and (kind, flags) != ("nonisotropic", "default")] + [
    ("nonisotropic.default.report.yaml", "nonisotropic.scan.csv", []),
    ("nonisotropic.scan1500.report.yaml", "nonisotropic.scan1500.csv", ["--scan-n", "1500"]),
]

# writes each report of PORTABLE, from the argument list of the test below
_WRITE_ALL = """
import json, sys
from nced.cli import main
out, jobs = sys.argv[1], json.loads(sys.argv[2])
for report, csv, flags in jobs:
    extra = ["--csv", f"{out}/{csv}"] if csv else []
    args = ["analyze", "--input", report.split(".")[0] + ".yaml",
            "--report", f"{out}/{report}", *extra, *flags]
    assert main(args) == 0, report
"""


def _settings():
    """The child-process settings under which the reports must keep their
    bytes: numpy without its dispatched SIMD targets (FMA among them), then
    the OpenBLAS kernels of an AVX2 and of an SSE4.2 CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__
    blas = [{"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Nehalem"}]
    if not __cpu_dispatch__:
        return blas
    return [{"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)}] + blas


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the settings name x86_64 SIMD targets and kernels")
def test_reports_keep_their_bytes_on_other_cpu_paths(tmp_path):
    runs = []
    for i, setting in enumerate(_settings()):
        out = tmp_path / str(i)
        out.mkdir()
        runs.append((setting, out, subprocess.Popen(
            [sys.executable, "-c", _WRITE_ALL, str(out), json.dumps(PORTABLE)],
            cwd=GOLDEN, env={**os.environ, **setting},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)))
    moved = []
    for setting, out, proc in runs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (setting, err)
        for report, csv, _ in PORTABLE:
            if body(out / report) != (GOLDEN / report).read_bytes():
                moved.append((setting, report))
            if csv and (out / csv).read_bytes() != (GOLDEN / csv).read_bytes():
                moved.append((setting, csv))
    assert moved == []
