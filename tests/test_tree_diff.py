"""tools/tree_diff.py on two small report trees."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "tree_diff.py")

BASE = {"certificate": {"granted": False, "failingMetric": "pFunctionSpread",
                        "inferredRadius": 1.0022071621962099},
        "criteria": [{"lhs": 0.5, "verdict": "satisfied", "worstNode": 224},
                     {"lhs": 3.0e-16, "verdict": "violated"}]}
CSV = "weight,term,value\nlinear,curvatureTop,-4.8e-15\nlinear,fluxCubedTop,2.5\n"


@pytest.fixture(scope="module")
def tree_diff():
    spec = importlib.util.spec_from_file_location("tree_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, report, csv_text, extra=None):
    os.makedirs(root / "run")
    (root / "run" / "criteria.json").write_text(json.dumps(report))
    (root / "run" / "terms.csv").write_text(csv_text)
    if extra:
        (root / "run" / extra).write_text("{}")


def test_counts_numbers_and_lists_every_other_change(tree_diff, tmp_path):
    changed = json.loads(json.dumps(BASE))
    changed["certificate"]["inferredRadius"] *= 1.0 + 1e-13
    changed["criteria"][1]["lhs"] = 1.0e-16
    changed["criteria"][1]["verdict"] = "satisfied"
    changed["criteria"][0]["worstNode"] = 1824
    del changed["certificate"]["failingMetric"]
    write_tree(tmp_path / "a", BASE, CSV, extra="only_a.json")
    write_tree(tmp_path / "b", changed, CSV.replace("2.5", "2.5000000001"))
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    # worstNode is an index: it is listed, not counted
    assert tree_diff.diff_trees(a, b) == [
        "run/criteria.json: 2 numbers changed, largest relative change "
        "6.7e-01 at criteria[1].lhs",
        "  certificate.failingMetric: 'pFunctionSpread' -> '<missing>'",
        "  criteria[0].worstNode: 224 -> 1824",
        "  criteria[1].verdict: 'violated' -> 'satisfied'",
        f"run/only_a.json: only in {a}",
        "run/terms.csv: 1 numbers changed, largest relative change 4.0e-11 "
        "at row 2, value"]


def test_equal_trees_change_nothing(tree_diff, tmp_path):
    for side in "ab":
        write_tree(tmp_path / side, BASE, CSV)
    assert tree_diff.diff_trees(str(tmp_path / "a"), str(tmp_path / "b")) == [
        "run/criteria.json: 0 numbers changed",
        "run/terms.csv: 0 numbers changed"]


def test_relative_change_of_special_values(tree_diff):
    nan, inf = float("nan"), float("inf")
    assert tree_diff._relative_change(nan, nan) == 0.0
    assert tree_diff._relative_change(inf, inf) == 0.0
    assert tree_diff._relative_change(1.0, nan) == inf
    assert tree_diff._relative_change(0.0, -2.0) == 1.0


def test_a_reformatted_file_is_layout_only(tree_diff, tmp_path):
    for side in "ab":
        write_tree(tmp_path / side, BASE, CSV)
    report = tmp_path / "b" / "run" / "criteria.json"
    report.write_text(json.dumps(BASE, indent=1) + "\n")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert tree_diff.diff_trees(a, b) == [
        "run/criteria.json: 0 numbers changed, layout only",
        "run/terms.csv: 0 numbers changed"]
    # a value other than a number that moved is listed, not layout
    report.write_text(json.dumps(BASE).replace("violated", "satisfied"))
    assert tree_diff.diff_trees(a, b)[:2] == [
        "run/criteria.json: 0 numbers changed",
        "  criteria[1].verdict: 'violated' -> 'satisfied'"]
