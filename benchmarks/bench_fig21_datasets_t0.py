"""Figure 21: all datasets at very low selectivity (T0, <1% affected).

Paper shape: at tiny selectivity R+DS is extremely competitive — the
filtered input is nearly empty, so the extra solver cost of R+PS+DS may not
pay off on smaller relations; on larger relations program slicing's
size-independent cost amortizes.
"""

import pytest

from repro.core import Method

from .common import DATASET_GRID, print_sweep, run_sweep

METHODS = [Method.R_PS, Method.R_DS, Method.R_PS_DS]


@pytest.mark.parametrize(
    "label,dataset,rows", DATASET_GRID, ids=[d[0] for d in DATASET_GRID]
)
def test_fig21(benchmark, label, dataset, rows):
    def run():
        return run_sweep(
            "fig21",
            METHODS,
            dataset=dataset,
            rows=rows,
            affected_pct=0.5,  # "T0": below 1%
        )

    sweep = benchmark.pedantic(run, rounds=1, iterations=1)
    print_sweep(
        f"Figure 21 — datasets at T0, {label}",
        sweep,
        METHODS,
        note="R+DS competitive with R+PS+DS at sub-1% selectivity",
    )
