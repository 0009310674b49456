"""Case 0 of every benchmark workload reproduces `bench/reference.json`.

The benchmark compares its outputs with the reference only after a timed
run; this catches a change in the numbers within the test suite.
"""

import json

import pytest

from util import BENCH, load_bench_workloads

REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_case_zero_matches_reference(name, monkeypatch):
    workloads = load_bench_workloads(monkeypatch)
    w = workloads.WORKLOADS[name]
    got = json.loads(json.dumps(w.summary(w.run(w.setup([0]), 0))))
    assert workloads.matches(REFERENCE[name]["0"], got, w.exact)
