"""Start-up and exit: ``import nced`` binds no submodule and loads no numpy,
``-X importtime`` times each module that the CLI imports, the CLI loads numpy
with one BLAS thread unless the user chose a thread count, and the process
entry freezes the garbage collector before teardown. No report loads
``numpy.random``: the small-group trials draw from the standard library's
``random``."""

import gc
import importlib.metadata
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nced
import nced.cli

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# the package's submodules other than its entries (``cli``, ``__main__``) and
# ``maxwell``, which the CLI does not import
SUBMODULES = ("algebra", "checks", "constitutive", "duality", "errors", "lorentz", "noncomm",
              "smallgroup")


def child(code, **env_vars):
    """Run ``python -c code`` with the BLAS variables unset apart from
    ``env_vars``, and return the last line it printed, read as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"].lower()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.skipif(not _openblas(), reason="the thread counts are OpenBLAS's")
@pytest.mark.parametrize("preset, threads", [
    ({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2)])
def test_cli_import_starts_no_blas_worker(preset, threads):
    # OpenBLAS starts no more threads than there are CPUs
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip(f"needs {threads} CPUs")
    got = child("import json, os, nced.cli; print(json.dumps([len(os.listdir('/proc/self/task')), "
                f"{{v: os.environ[v] for v in {BLAS_VARS} if v in os.environ}}]))", **preset)
    assert got == [threads, preset or {"OPENBLAS_NUM_THREADS": "1"}]


def test_library_import_leaves_blas_threading_alone():
    got = child("import json, os, sys, nced; bare = 'numpy' in sys.modules; "
                "from nced import lorentz; from nced.algebra import mul; "
                "print(json.dumps([bare, 'numpy' in sys.modules, "
                "os.environ.get('OPENBLAS_NUM_THREADS'), lorentz.__name__, mul.__module__]))")
    assert got == [False, True, None, "nced.lorentz", "nced.algebra"]


def test_package_binds_its_constants_and_imports_each_submodule_normally():
    got = child(f"""
import json, sys
import nced
public = sorted(name for name in vars(nced) if not name.startswith("_"))
state = [public, nced.__version__, "numpy" in sys.modules]
found = []
for name in {SUBMODULES!r}:
    exec(f"from nced import {{name}} as sub")
    found.append(sub is sys.modules[f"nced.{{name}}"])
print(json.dumps([state, found]))
""")
    assert got == [[["BACKEND"], "0.6.0", False], [True] * len(SUBMODULES)]


def test_importtime_lists_every_module_the_cli_imports():
    # a submodule loaded outside the import system (say, by a module-level
    # __getattr__ calling importlib) gets no line, and its time is charged to
    # its importer's self time, so perfbench's per-module split would be wrong
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nced.cli"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    names = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    assert sorted(name for name in names if name.split(".")[0] == "nced") == sorted(
        ["nced", "nced.cli", *(f"nced.{name}" for name in SUBMODULES)])


@pytest.mark.parametrize("kind", ["nonisotropic", "isotropic", "zero"])
def test_no_report_loads_numpy_random(kind, tmp_path):
    # nced's records are NamedTuples, so no run loads dataclasses either
    inp = ROOT / "tests" / "data" / "golden" / f"{kind}.yaml"
    argv = ["analyze", "--input", str(inp), "--report", str(tmp_path / "r.yaml")]
    got = child(f"""
import json, sys, nced.cli
runs = []
for flags in ([], ["--trials", "2000"]):
    code = nced.cli.main({argv!r} + flags)
    runs.append([code, "numpy.random" in sys.modules, "dataclasses" in sys.modules])
print(json.dumps(runs))
""")
    assert got == [[0, False, False]] * 2


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nced.no_such_name


PASSING = "epsilon: [0, 0, 0]\ntheta: [0, 0, 1]\n"
# theta² − epsilon² = 9e-10: K is not null but is classified isotropic, and
# only the canonical_form row fails, on the null reference it cannot reach
FAILING = "epsilon: [0, -1.0, 0]\ntheta: [1.0, 0, 3.0e-5]\n"
# PyYAML's parser recurses once per level; libyaml's crashes at this depth
DEEP = f"epsilon: [0, 0, 0]\ntheta: {'[' * 100_000}1{']' * 100_000}\n"


def test_main_in_process_leaves_the_collector_alone(tmp_path):
    inp = tmp_path / "in.yaml"
    inp.write_text(FAILING)
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    code = nced.cli.main(["analyze", "--input", str(inp), "--report", str(tmp_path / "r.yaml")])
    assert code == 1
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


def test_run_returns_the_code_of_main_and_freezes(tmp_path):
    inp = tmp_path / "in.yaml"
    inp.write_text(FAILING)
    argv = ["nced", "analyze", "--input", str(inp), "--report", str(tmp_path / "r.yaml")]
    got = child(f"import gc, json, sys; sys.argv = {argv!r}; from nced.__main__ import run; "
                "before = gc.get_freeze_count(); code = run(); "
                "print(json.dumps([before, code, gc.get_freeze_count()]))")
    assert got[:2] == [0, 1]
    assert got[2] > 0


@pytest.mark.parametrize("text, code, out", [
    pytest.param(PASSING, 0, "pass: nonisotropic; checks 10/10; report r.yaml\n", id="pass"),
    pytest.param(FAILING, 1, "fail: isotropic; checks 9/10; report r.yaml\n", id="fail"),
    pytest.param(DEEP, 2, "", id="nested-100000"),
])
def test_module_entry_exit_codes_with_stdout_piped(tmp_path, text, code, out):
    # stdout to a pipe is block-buffered, so the summary reaches it only
    # through the flush of a normal exit
    (tmp_path / "in.yaml").write_text(text)
    proc = subprocess.run([sys.executable, "-m", "nced", "analyze", "--input", "in.yaml",
                           "--report", "r.yaml"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, out)
    if code == 2:
        assert proc.stderr == "input error: input is nested too deeply\n"
        assert not (tmp_path / "r.yaml").exists()
    else:
        assert proc.stderr == ""


def test_script_and_module_run_one_entry(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["nced"]
    script = importlib.metadata.EntryPoint("nced", target, "console_scripts").load()
    # what ``python -m nced`` runs: __main__.py executed as __main__, with a
    # stand-in for main that records its caller
    callers, frozen = [], []

    def main():
        callers.append(sys._getframe(1).f_code)
        return 3

    monkeypatch.setattr(nced.cli, "main", main)
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(len(callers)))
    monkeypatch.delitem(sys.modules, "nced.__main__", raising=False)
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("nced", run_name="__main__")
    assert exit_.value.code == 3
    assert callers == [script.__code__] and frozen == [1]


def test_pyproject_version_is_the_package_version():
    # the version is written once, in nced.__version__, and the build reads it
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"] and "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "nced.__version__"}
