"""The benchmark's workloads still reproduce ``perfbench/reference.json``.

``perfbench/workloads.py`` is loaded by path and its passes are played in
this process: every tiny case of the three workloads, and the full-size
``repro_cell`` cases 0 and 9 (case 9 ends in ``infeasibility_declared``).
Statuses, rounds and joint-action digests must match exactly, and floats
within the reference file's tolerance, as the benchmark checks them.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from congames import cli, config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("perfbench_workloads", PERFBENCH / "workloads.py")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
TOLERANCE = REFERENCE["tolerance"]

CASES = [
    ("tiny", workload, case)
    for workload in workloads.WORKLOADS
    for case in range(workloads.CASES)
] + [("full", "repro_cell", 0), ("full", "repro_cell", 9)]


def assert_matches(got, want, where="outputs"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert math.isclose(
            got, want, rel_tol=TOLERANCE["rtol"], abs_tol=TOLERANCE["atol"]
        ), f"{where}: {got!r} against {want!r}"
    else:
        assert got == want, f"{where}: {got!r} against {want!r}"


@pytest.mark.parametrize(
    "size, workload, case", CASES, ids=[f"{s}-{w}-{c}" for s, w, c in CASES]
)
def test_workload_reproduces_reference(tmp_path, size, workload, case):
    inputs = workloads.make_inputs(workload, case, size, tmp_path)
    record = workloads.outputs(inputs, workloads.run(inputs, cli, config))
    want = REFERENCE[size][workload][str(case)]
    # bytes written is a cost, not an output: the benchmark does not check it
    record = {key: record[key] for key in want}
    assert_matches(record, want)
