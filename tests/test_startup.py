"""Start-up: the package loads its submodules on first use, and the CLI loads
numpy with one BLAS thread unless the user chose a thread count."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nced

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# every name the package bound when it imported its submodules eagerly, with
# the submodule that defines it (a submodule name maps to itself)
EAGER_EXPORTS = {
    "algebra": "algebra", "constitutive": "constitutive", "duality": "duality",
    "errors": "errors", "lorentz": "lorentz", "noncomm": "noncomm",
    "smallgroup": "smallgroup",
    **dict.fromkeys(("conj_complex", "conj_components", "conj_quat", "mul", "norm", "quat",
                     "scalar_part", "sym_scalar", "vector_part"), "algebra"),
    **dict.fromkeys(("ExcitationState", "FieldState", "forward", "inverse"), "constitutive"),
    **dict.fromkeys(("GRState", "dual_rotate", "duality_scan"), "duality"),
    **dict.fromkeys(("DegenerateError", "InconsistentInputError", "InputFormatError",
                     "KindMismatchError", "NcedError", "NotAntisymmetricError",
                     "NotUnitError", "ZeroKError"), "errors"),
    **dict.fromkeys(("act_four_vector", "act_vector", "boost", "compose", "factorize",
                     "lorentz_matrix4", "make_element", "rotation", "so3c_matrix"), "lorentz"),
    **dict.fromkeys(("KInvariants", "ThetaVectors", "classify", "invariants",
                     "k_from_vectors"), "noncomm"),
    **dict.fromkeys(("SmallGroupDescriptor", "canonical_form", "describe", "element",
                     "stabilizes"), "smallgroup"),
}


def child(code, **env_vars):
    """Run ``python -c code`` with the BLAS variables unset apart from
    ``env_vars``, and return what it printed as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout)


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
                "from nced import lorentz, mul; print(json.dumps([bare, 'numpy' in sys.modules, "
                "os.environ.get('OPENBLAS_NUM_THREADS'), lorentz.__name__, mul.__module__]))")
    assert got == [False, True, None, "nced.lorentz", "nced.algebra"]


def test_lazy_exports_match_the_eager_ones():
    for name, module in EAGER_EXPORTS.items():
        sub = importlib.import_module(f"nced.{module}")
        assert getattr(nced, name) is (sub if name == module else getattr(sub, name)), name
        assert name in dir(nced)
    assert nced.__version__ == "0.1.0" and nced.BACKEND == "numpy"
    assert set(nced.__all__) == {*EAGER_EXPORTS, "BACKEND"}
    star = {}
    exec("from nced import *", star)
    assert {k for k in star if k != "__builtins__"} == set(nced.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nced.no_such_name
