"""Tier-1 smoke test of the end-to-end benchmark: every workload, tiny."""

import re

import pytest

from benchmarks.e2e.compare import verdict
from benchmarks.e2e.run import DECLARED, WORKLOADS, run_workload

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_declared_names_are_well_formed_and_unique():
    names = WORKLOADS + [
        m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in names
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_the_declared_metrics_and_no_failure(workload, trace):
    """Both directions: what a run reports is what ``BENCHMARK.json``
    declares, unit for unit.  ``failed == 0`` covers the oracle, the
    cache predictions and, traced, staged delta == whole delta."""
    result = run_workload(workload, seed=7, seconds=0.2, trace=trace, scale=0.05)
    kind = "per_layer" if trace else "end_to_end"
    assert {n: e["unit"] for n, e in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED[kind]
    }
    assert result["detail"]["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [104.0], "lower", 0.1)[0] == "within bound"
    assert verdict(steady, [115.0], "lower", 0.1)[0] == "worse"
    assert verdict(steady, [85.0], "lower", 0.1)[0] == "better"
    assert verdict(steady, [85.0], "higher", 0.1)[0] == "worse"
    assert verdict([80.0, 100.0, 120.0, 140.0], [200.0], "lower", 0.1)[0] == (
        "unresolved"
    )
