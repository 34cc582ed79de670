"""tools/differential.py reports what a "same results" claim must not hide, and no capacity
that moved within tolerance.

The driver and the corpus's encoder are loaded by path and fed records built in this
process; no corpus child runs here.
"""
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus, differential = load("corpus"), load("differential")


def record(value, case_id="family/case"):
    return corpus.run_case(case_id, lambda: value)


def reported(parent, change):
    return [case for case, _, _ in differential.differences(parent, change)]


def test_equal_records_are_not_reported():
    value = {"loss": np.float64(0.5), "grad": np.arange(3.0), "bits": corpus.Capacity(0.25)}
    assert reported([record(value)], [record(value)]) == []


def test_a_last_bit_float_change_is_reported():
    assert reported([record(0.1)], [record(math.nextafter(0.1, 1.0))]) == ["family/case"]
    after = math.nextafter(0.1, 1.0)
    assert reported([record(np.array([0.1]))], [record(np.array([after]))]) == ["family/case"]


def test_float_to_float64_is_reported():
    x = 0.6731956319477148
    assert reported([record(x)], [record(np.float64(x))]) == ["family/case"]


@pytest.mark.parametrize("shift, shown",
                         [(1e-11, False), (-1e-11, False), (1e-9, True), (-1e-9, True)])
def test_a_capacity_compares_within_twice_the_solver_tol(shift, shown):
    parent, change = record(corpus.Capacity(0.4)), record(corpus.Capacity(0.4 + shift))
    assert reported([parent], [change]) == (["family/case"] if shown else [])


def test_a_capacity_is_compared_exactly_as_to_its_type():
    parent, change = record(corpus.Capacity(0.4)), record(corpus.Capacity(np.float64(0.4)))
    assert reported([parent], [change]) == ["family/case"]


def test_a_case_that_returns_in_one_tree_and_raises_in_the_other_is_reported():
    def raises():
        raise ValueError("counts shape does not match the hierarchy")

    returned, raised = record(1.0), corpus.run_case("family/case", raises)
    assert raised["raised"] == ["ValueError", "counts shape does not match the hierarchy"]
    assert reported([returned], [raised]) == ["family/case"]
    assert reported([raised], [returned]) == ["family/case"]


def test_a_case_missing_from_one_side_is_reported():
    both, parent_only, change_only = (record(v, f"a/{name}") for v, name in
                                      ((1, "both"), (2, "parent"), (3, "change")))
    found = differential.differences([both, parent_only], [both, change_only])
    assert [(case, old is None, new is None) for case, old, new in found] == [
        ("a/parent", False, True), ("a/change", True, False)]
    assert differential.show(None, parent_only) == "<missing>"


def test_warnings_and_printed_output_are_recorded():
    def noisy():
        print("to stdout")
        warnings.warn("below chance", RuntimeWarning)
        return 0

    rec = corpus.run_case("family/case", noisy)
    assert rec["warnings"] == [["RuntimeWarning", "below chance"]]
    assert rec["stdout"] == "to stdout\n"
    assert reported([rec], [record(0)]) == ["family/case"]


def test_a_difference_shows_the_outcome_and_each_field_that_differs():
    def warns():
        warnings.warn("below chance", RuntimeWarning)
        return {"exit": 2, "files": {}}

    parent, change = record({"exit": 2, "files": {}}), corpus.run_case("family/case", warns)
    assert differential.show(parent, change) == "{'exit': 2, 'files': {}}; warnings=[]"
    assert differential.show(change, parent) == (
        "{'exit': 2, 'files': {}}; warnings=[['RuntimeWarning', 'below chance']]")
    parent, change = record({"loss": 0.5, "n": 3}), record({"loss": np.float64(0.5), "n": 3})
    assert differential.show(parent, change) == "{'loss': 0.5}"
    assert differential.show(change, parent) == "{'loss': numpy.float64(0.5)}"
