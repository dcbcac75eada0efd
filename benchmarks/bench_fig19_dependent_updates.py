"""Figure 19: varying the percentage of dependent updates D (at T10, U100).

Paper shape: program slicing loses effectiveness as D grows (more updates
must stay in the slice) until at D100 it pays the solver cost for no
benefit; adding data slicing (R+PS+DS) mitigates the degradation because
the reenacted input is still filtered.
"""

import pytest

from repro.bench import print_series_table, run_methods
from repro.core import Method
from repro.workloads import WorkloadSpec, build_workload

from .common import SMALL_ROWS, record

D_SWEEP = (1.0, 10.0, 50.0, 100.0)
METHODS = [Method.R_PS, Method.R_PS_DS]


def test_fig19(benchmark):
    def run():
        out = []
        for d in D_SWEEP:
            spec = WorkloadSpec(
                dataset="taxi",
                rows=SMALL_ROWS,
                updates=50,
                dependent_pct=d,
                affected_pct=10.0,
                seed=7,
            )
            workload = build_workload(spec)
            timings = run_methods(workload.query, METHODS)
            slice_result = timings[Method.R_PS_DS].result.slice_result
            row = {
                "dependent_pct": d,
                "kept": len(slice_result.kept_positions),
                Method.R_PS.value: timings[Method.R_PS].total_seconds,
                Method.R_PS_DS.value: timings[
                    Method.R_PS_DS
                ].total_seconds,
            }
            record("fig19", row)
            out.append(row)
        return out

    sweep = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series_table(
        "Figure 19 — % dependent updates (U50, T10, taxi)",
        ["D%", "slice kept", "R+PS", "R+PS+DS"],
        [
            [r["dependent_pct"], r["kept"], r["R+PS"], r["R+PS+DS"]]
            for r in sweep
        ],
        note="slice grows with D; R+PS degrades, R+PS+DS mitigates",
    )
    assert sweep[-1]["kept"] > sweep[0]["kept"], (
        "higher D must keep more statements in the slice"
    )
