"""``report_diff`` names every changed key of a mutated report, with its
absolute and relative difference, and nothing else."""

import copy
import math
from pathlib import Path

import yaml

from nced.cli import analyze, load_input
from report_diff import changed_keys, report_diff

GOLDEN = Path(__file__).parent / "data" / "golden"


def golden(name):
    return yaml.safe_load((GOLDEN / name).read_text())


def test_mutated_report_names_each_change():
    old = golden("nonisotropic.default.report.yaml")
    new = copy.deepcopy(old)
    new["covariant_transport_residual"] = 2.0 * old["covariant_transport_residual"]
    new["duality"]["table"][3][1] = old["duality"]["table"][3][1] + 0.25
    new["checks"]["invariance"] = False
    new["small_group"]["sample_elements"].pop()
    del new["factorization"]["of_parameter"]
    new["note"] = "added"
    new["tool_version"] = "9.9.9"
    diff = report_diff(old, new)
    assert list(diff) == ["tool_version", "small_group.sample_elements",
                          "covariant_transport_residual", "factorization.of_parameter",
                          "duality.table[3][1]", "checks.invariance", "note"]
    delta, rel = diff["covariant_transport_residual"]
    assert delta == old["covariant_transport_residual"] and rel == 1.0
    delta, rel = diff["duality.table[3][1]"]
    assert math.isclose(delta, 0.25) and math.isclose(rel, 0.25 / old["duality"]["table"][3][1])
    for key in ("tool_version", "small_group.sample_elements", "factorization.of_parameter",
                "checks.invariance", "note"):
        assert diff[key] == (None, None)
    assert changed_keys(diff)[-3:] == ["duality.table", "checks.invariance", "note"]


def test_equal_reports_and_equal_nans_do_not_differ():
    report = golden("isotropic.default.report.yaml")
    assert report_diff(report, copy.deepcopy(report)) == {}
    assert report_diff({"a": [math.nan, 0.0]}, {"a": [math.nan, 0.0]}) == {}
    (delta, rel), = report_diff({"a": 0.0}, {"a": math.nan}).values()
    assert math.isnan(delta) and rel == math.inf
    assert report_diff({"a": 1}, {"a": True}) == {"a": (None, None)}


def test_in_memory_table_is_compared_with_its_rows():
    inp = GOLDEN / "nonisotropic.yaml"
    report = analyze(load_input(inp), "nonisotropic.yaml", scan_n=360, trials=100, seed=42)
    want = golden("nonisotropic.default.report.yaml")
    del report["generated_at"]
    assert report_diff(want, report) == {}
    report["duality"]["table"][5, 1] *= 2.0
    assert list(report_diff(want, report)) == ["duality.table[5][1]"]
