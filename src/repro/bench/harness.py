"""Benchmark harness: method runners, phase breakdowns, table printing.

Every figure/table benchmark builds a :class:`~repro.workloads.generator.
Workload`, runs the selected methods through :func:`run_method`, and
prints the same rows/series the paper's figure reports via
:func:`print_series_table`.  Results are also accumulated in a process-
wide registry so a session can dump everything at the end (EXPERIMENTS.md
was produced this way).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from ..core.engine import Mahif, MahifConfig, MahifResult, Method
from ..core.hwq import HistoricalWhatIfQuery
from ..relational.database import Database
from ..relational.relation import Relation
from ..workloads.generator import Workload, WorkloadSpec, build_workload

__all__ = [
    "MethodTiming",
    "run_method",
    "run_methods",
    "print_series_table",
    "format_table",
    "RESULTS",
    "record_result",
]

#: Process-wide registry of (experiment, row-dict) pairs, guarded by
#: ``_RESULTS_LOCK`` (benchmarks may record from pool callbacks).
RESULTS: list[tuple[str, dict[str, Any]]] = []
_RESULTS_LOCK = threading.Lock()


def record_result(experiment: str, row: dict[str, Any]) -> None:
    with _RESULTS_LOCK:
        RESULTS.append((experiment, dict(row)))


@dataclass(frozen=True)
class MethodTiming:
    """Wall-clock result of answering one HWQ with one method."""

    method: Method
    total_seconds: float
    ps_seconds: float
    exe_seconds: float
    delta_size: int
    result: MahifResult

    @property
    def label(self) -> str:
        return self.method.value


def run_method(
    query: HistoricalWhatIfQuery,
    method: Method,
    config: MahifConfig | None = None,
) -> MethodTiming:
    """Answer ``query`` with ``method`` and collect the paper's timings."""
    engine = Mahif(config)
    start = time.perf_counter()
    result = engine.answer(query, method)
    total = time.perf_counter() - start
    return MethodTiming(
        method=method,
        total_seconds=total,
        ps_seconds=result.ps_seconds,
        exe_seconds=result.exe_seconds,
        delta_size=len(result.delta),
        result=result,
    )


def run_methods(
    query: HistoricalWhatIfQuery,
    methods: Sequence[Method],
    config: MahifConfig | None = None,
) -> dict[Method, MethodTiming]:
    """Run several methods over the same query (deltas cross-checked).

    Every method gets its own copy of the database — equal rows, new
    ``Relation`` objects — because Φ_D and the columnar table are
    remembered on a relation's identity: over shared objects whichever
    method ran second would be timed on the first one's memo hits.
    """
    timings: dict[Method, MethodTiming] = {}
    reference_delta = None
    for method in methods:
        fresh = Database({
            name: Relation(relation.schema, relation.tuples)
            for name, relation in query.database.relations.items()
        })
        timing = run_method(replace(query, database=fresh), method, config)
        timings[method] = timing
        if reference_delta is None:
            reference_delta = timing.result.delta
        elif timing.result.delta != reference_delta:
            raise AssertionError(
                f"method {method.value} returned a different delta than "
                f"{methods[0].value} — correctness bug"
            )
    return timings


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[Any]]
) -> str:
    """Fixed-width table rendering."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in materialized))
        if materialized
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_series_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    note: str = "",
    file: Any = None,
) -> None:
    """Print one figure's table with an optional expected-shape note.

    Defaults to ``sys.__stdout__`` so the series reach the console (and
    any ``tee``) even under pytest's output capturing — benchmark tables
    are the deliverable, not debug noise.
    """
    import sys

    out = file if file is not None else sys.__stdout__
    # repro-lint: allow[no-print] -- benchmark tables are the deliverable
    print(file=out)
    # repro-lint: allow[no-print] -- benchmark tables are the deliverable
    print(f"### {title}", file=out)
    # repro-lint: allow[no-print] -- benchmark tables are the deliverable
    print(format_table(headers, rows), file=out)
    if note:
        # repro-lint: allow[no-print] -- benchmark tables are the deliverable
        print(f"(paper shape: {note})", file=out)
    out.flush()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.1f}"
        return f"{value:.4f}" if value < 1 else f"{value:.2f}"
    return str(value)
