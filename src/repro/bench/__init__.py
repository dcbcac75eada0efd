"""Benchmark harness utilities (timing, method runners, table printing)."""

from .harness import (
    RESULTS,
    MethodTiming,
    format_table,
    print_series_table,
    record_result,
    run_method,
    run_methods,
)

__all__ = [
    "MethodTiming", "run_method", "run_methods",
    "format_table", "print_series_table", "RESULTS", "record_result",
]
