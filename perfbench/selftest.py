"""Self-test of the benchmark itself (not of nced).

    python3 -m pytest -q perfbench/selftest.py

Runs every workload once at minimal size, traced and untraced, and checks the
input generator, the tracer, the import-time parser and the compare
verdicts.
"""

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())


def take(workload, seed, n):
    return list(itertools.islice(workloads.generate(workload, seed), n))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    first = take(w, 7, 12)
    assert first == take(w, 7, 12)
    assert first != take(w, 8, 12)
    assert [i.kind for i in first] == [w.kinds[i % len(w.kinds)] for i in range(12)]
    assert [i.yaml_text() for i in first] == [i.yaml_text() for i in take(w, 7, 12)]


def test_inputs_have_the_shape_of_their_kind():
    from nced import noncomm

    for inp in take(workloads.WORKLOADS["cli-scan"], 1, 300):
        eps, th = inp.epsilon, inp.theta
        doc = yaml.safe_load(inp.yaml_text())
        if inp.form == "vector":
            assert (tuple(doc["epsilon"]), tuple(doc["theta"])) == (eps, th)
        else:
            assert doc["theta_matrix"] == workloads.theta_matrix(eps, th)
            back = noncomm.vectors_from_tensor(doc["theta_matrix"])
            assert (tuple(back.epsilon), tuple(back.theta)) == (eps, th)
        k = noncomm.k_from_vectors(noncomm.ThetaVectors(eps, th))
        assert noncomm.classify(k) == inp.kind
        if inp.kind == workloads.NONISOTROPIC:
            cond = workloads.condition(eps, th)
            assert math.isclose(cond, abs(complex(k @ k)) / float((abs(k) ** 2).sum()))
            assert cond >= workloads.MIN_CONDITION
        if inp.kind == workloads.ISOTROPIC:
            m = math.dist(th, (0, 0, 0))
            assert 0.1 <= m <= workloads.ISOTROPIC_MAX
            assert abs(math.dist(eps, (0, 0, 0)) - m) <= 1e-14 * m
            assert abs(sum(a * b for a, b in zip(eps, th))) <= 1e-14 * m * m


def _bindings():
    return {(name, attr): obj for name, mod in sys.modules.items()
            if name == "nced" or name.startswith("nced.") for attr, obj in vars(mod).items()}


def test_tracer_wraps_every_binding_and_restores_them():
    import nced.cli
    from nced import constitutive, smallgroup

    before = _bindings()
    original = constitutive.h_from_f
    tr = tracer.Tracer()
    with tr.installed({"report.yaml": "cli.report_write"}):
        assert smallgroup.h_from_f is constitutive.h_from_f is not original
        assert nced.cli._small_group_section is not before["nced.cli", "_small_group_section"]
        assert "open" in vars(nced.cli)
        smallgroup.verify_constitutive_invariance(
            [1.0, 0.5j, 0.0], smallgroup.element(smallgroup.describe([0, 0, 1.0]), chi=0.3),
            [0.1, 0.2, 0.3], [0.3, 0.2, 0.1])
    calls, total, self_s, _ = tr.stats["constitutive.h_from_f"]
    assert calls == 2 and 0.0 <= self_s <= total
    outer = tr.stats["smallgroup.verify_constitutive_invariance"]
    assert outer[0] == 1 and outer[2] < outer[1]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert after.keys() == before.keys() and all(after[k] is before[k] for k in before)


def test_self_time_is_total_minus_children():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: inner() + inner())
    outer()
    o, i = tr.stats["outer"], tr.stats["inner"]
    assert i[0] == 2 and math.isclose(o[2], o[1] - i[1], abs_tol=1e-12)


def test_importtime_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       2000 | site",
        "import time:       100 |        100 |     nced._backend",
        "import time:      2000 |     190000 |       numpy",
        "import time:      3000 |     193100 |     nced.algebra",
        "import time:       400 |     193600 |   nced",
        "import time:      5000 |      25000 |   yaml",
        "import time:      9000 |     230000 | nced.cli",
    ])
    got = run.parse_importtime(text)
    want = {"import.numpy_s": 0.19, "import.yaml_s": 0.025, "import.nced_s": 0.0125,
            "import.other_s": 0.0025, "import.total_s": 0.23}
    assert got.keys() == want.keys()
    assert all(math.isclose(got[k], want[k]) for k in want)


def test_compare_verdicts():
    steady, noisy = [1.0, 1.01, 0.99, 1.0], [0.5, 1.0, 1.5, 1.0]
    s = compare.summary
    assert compare.verdict(s(steady), s(noisy), 0.1, "lower") == "unresolved"
    assert compare.verdict(s(steady), s([1.2, 1.21, 1.19, 1.2]), 0.1, "lower") == "regressed"
    assert compare.verdict(s(steady), s([1.2, 1.21, 1.19, 1.2]), 0.1, "higher") == "improved"
    assert compare.verdict(s(steady), s([1.05, 1.05, 1.04, 1.06]), 0.1, "lower") == "within bound"
    assert compare.verdict(s(steady), s(steady), None, "lower") == "-"


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_once_at_minimal_size(name, trace):
    w = dataclasses.replace(workloads.WORKLOADS[name], trials=2, scan_n=16)
    rec = run.run(w, seed=3, seconds=0, trace=trace, probes=1, importtime_probes=1)
    assert rec["result"]["correct"], rec["problems"]
    assert rec["result"]["attempted"] == len(w.kinds)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(rec["metrics"]) == [m["name"] for m in listed]
    assert all(isinstance(m["value"], (int, float)) for m in rec["metrics"].values())
    if trace:
        assert rec["metrics"]["duality.duality_scan.points"]["value"] == 16
        assert rec["metrics"]["cli.report.bytes"]["value"] > 0
        assert (rec["metrics"]["cli.csv.bytes"]["value"] > 0) == w.csv


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path)
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli-default",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
