"""Tests for the benchmark harness utilities."""

import pytest

from repro.bench import (
    RESULTS,
    format_table,
    print_series_table,
    record_result,
    run_method,
    run_methods,
)
from repro.core import Method
from repro.workloads import WorkloadSpec, build_workload


@pytest.fixture
def small_query():
    return build_workload(
        WorkloadSpec(dataset="taxi", rows=300, updates=5, seed=17)
    ).query


class TestRunners:
    def test_run_method_populates_timing(self, small_query):
        timing = run_method(small_query, Method.R)
        assert timing.method is Method.R
        assert timing.total_seconds > 0
        assert timing.label == "R"
        assert timing.delta_size == len(timing.result.delta)

    def test_run_methods_cross_checks_deltas(self, small_query):
        timings = run_methods(small_query, [Method.NAIVE, Method.R_PS_DS])
        assert set(timings) == {Method.NAIVE, Method.R_PS_DS}

    def test_every_method_starts_cold(self, small_query, monkeypatch):
        """Φ_D and the columnar table are remembered on a relation's
        identity, so each method gets its own copy of the database:
        whichever runs second scans as much as the one that ran first
        (over shared objects it would find both memos filled)."""
        from repro.bench import harness
        from repro.obs.metrics import global_registry

        registry = global_registry()
        counters = [
            registry.counter(name, "", ("outcome",))
            for name in ("mahif_phi_d_memo_total", "mahif_columnar_memo_total")
        ]
        misses = []
        real = harness.run_method

        def counted(query, method, config=None):
            before = [c.value(outcome="miss") for c in counters]
            timing = real(query, method, config)
            misses.append(
                [c.value(outcome="miss") - b for c, b in zip(counters, before)]
            )
            return timing

        monkeypatch.setattr(harness, "run_method", counted)
        harness.run_methods(small_query, [Method.R_PS, Method.R_PS_DS])
        first, second = misses
        assert first == second and all(count > 0 for count in first)

    def test_run_methods_raises_on_divergence(self, small_query, monkeypatch):
        """A method returning a different delta must be flagged."""
        from repro.bench import harness
        from repro.core import DatabaseDelta

        real = harness.run_method

        def broken(query, method, config=None):
            timing = real(query, method, config)
            if method is Method.R:
                object.__setattr__(
                    timing.result, "delta", DatabaseDelta({})
                )
            return timing

        monkeypatch.setattr(harness, "run_method", broken)
        with pytest.raises(AssertionError):
            harness.run_methods(small_query, [Method.NAIVE, Method.R])


class TestFormatting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_empty(self):
        table = format_table(["x"], [])
        assert "x" in table

    def test_print_series_table(self):
        import io

        buffer = io.StringIO()
        print_series_table("T", ["a"], [[1]], note="shape", file=buffer)
        out = buffer.getvalue()
        assert "### T" in out and "paper shape: shape" in out

    def test_record_result(self):
        before = len(RESULTS)
        record_result("exp", {"x": 1})
        assert len(RESULTS) == before + 1
        assert RESULTS[-1] == ("exp", {"x": 1})
