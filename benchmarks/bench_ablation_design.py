"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper, but ablations of this implementation:

* **slicing algorithm** — the Section-9 dependency analysis (default, one
  small solver call per statement) vs the Section-8.3.3 greedy search
  (exact Theorem-4 checks, one large solver call per candidate), on the
  same 12-statement history,
* **compression grouping** — Φ_D as a single range box vs grouped by a
  categorical attribute (Section 8.3.1's knob): more groups = tighter
  over-approximation = potentially smaller slices at higher solver cost,
* **defining-conjunct pruning** — the solver handed all symbolic
  defining equalities vs only the transitively-referenced ones.
"""

import time

import pytest

from repro.bench import print_series_table
from repro.core import MahifConfig, Method, answer
from repro.core.program_slicing import ProgramSlicingConfig
from repro.symbolic import CompressionConfig
from repro.workloads import WorkloadSpec, build_workload

from .common import SMALL_ROWS, record


def test_ablation_slicing_algorithm(benchmark):
    """dependency vs greedy slicing: same slice quality, different cost."""

    def run():
        spec = WorkloadSpec(
            dataset="taxi", rows=SMALL_ROWS, updates=12, seed=7
        )
        workload = build_workload(spec)
        out = []
        for algorithm in ("dependency", "greedy"):
            config = MahifConfig(slicing_algorithm=algorithm)
            start = time.perf_counter()
            result = answer(workload.query, Method.R_PS_DS, config)
            elapsed = time.perf_counter() - start
            row = {
                "algorithm": algorithm,
                "total": elapsed,
                "ps": result.ps_seconds,
                "kept": len(result.slice_result.kept_positions),
                "solver_calls": result.slice_result.solver_calls,
            }
            record("ablation_slicing", row)
            out.append(row)
        assert out[0]["kept"] <= out[1]["kept"], (
            "dependency must never keep more than greedy (its UNKNOWNs "
            "are conservative)"
        )
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series_table(
        "Ablation — slicing algorithm (U12, taxi)",
        ["algorithm", "total s", "PS s", "kept", "solver calls"],
        [
            [r["algorithm"], r["total"], r["ps"], r["kept"], r["solver_calls"]]
            for r in rows
        ],
        note=f"kept of 12 — dependency {rows[0]['kept']}, greedy "
        f"{rows[1]['kept']}: dependency asks one small question per "
        "statement, greedy one Theorem-4 question per candidate",
    )


def test_ablation_compression_grouping(benchmark):
    """Φ_D granularity: ungrouped vs grouped compression."""

    def run():
        spec = WorkloadSpec(
            dataset="taxi", rows=SMALL_ROWS, updates=10, seed=7
        )
        workload = build_workload(spec)
        out = []
        for label, compression in (
            ("single box", CompressionConfig(group_by=None)),
            ("by company", CompressionConfig(group_by="company")),
            (
                "4 fare buckets",
                CompressionConfig(group_by="fare", num_groups=4),
            ),
        ):
            config = MahifConfig(
                program_slicing=ProgramSlicingConfig(compression=compression)
            )
            start = time.perf_counter()
            result = answer(workload.query, Method.R_PS_DS, config)
            elapsed = time.perf_counter() - start
            row = {
                "compression": label,
                "total": elapsed,
                "ps": result.ps_seconds,
                "kept": len(result.slice_result.kept_positions),
            }
            record("ablation_compression", row)
            out.append(row)
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series_table(
        "Ablation — Φ_D compression granularity (U20, taxi)",
        ["compression", "total s", "PS s", "kept"],
        [[r["compression"], r["total"], r["ps"], r["kept"]] for r in rows],
        note="tighter Φ_D can shrink slices at extra solver cost",
    )
