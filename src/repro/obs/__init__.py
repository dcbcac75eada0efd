"""Unified observability layer: metrics, tracing, profiling, logging.

One package, three windows into a running Mahif deployment, all with
zero third-party dependencies and injectable clocks (the repo-wide
idiom: contracts provable in tests without sleeps):

* :mod:`repro.obs.metrics` — a thread-safe metrics registry (counters,
  gauges, bucketed-latency histograms) rendered in Prometheus text
  exposition format by the ``/metrics`` endpoint on
  :class:`~repro.service.server.WhatIfServer`.  The process-global
  registry is the single source of truth for the degradation counters
  that previously lived in ad-hoc module state.
* :mod:`repro.obs.trace` — structured per-request span trees (cache →
  time_travel → plan → verify → execute → relation), propagated
  across the wire via the ``X-Mahif-Trace`` header and emitted as JSON
  lines to a configurable sink.  Sampled off by default; the dormant
  instrumentation costs one thread-local read per span site.
* :mod:`repro.obs.profile` — EXPLAIN ANALYZE-style per-operator wall
  time and row counts for reenactment queries, surfaced through
  ``Mahif.answer(..., explain=True)``, ``whatif --explain`` and the
  service API.
* :mod:`repro.obs.logging` — the structured stderr event log that
  library code uses instead of bare ``print()`` (enforced by the
  ``no-print`` lint rule in ``tools/repro_lint.py``).
"""

from __future__ import annotations

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from .trace import (
    configure_tracing,
    current_span,
    new_trace_id,
    record_span,
    span,
    start_trace,
    tracing_configured,
    use_span,
)
from .logging import log_event

# The profiler imports the algebra layer; keep it lazy (PEP 562, the
# exec-package idiom) so deep modules can import repro.obs for metrics
# or tracing without dragging the relational stack into their import
# graph.
_LAZY = {"OperatorProfile": "profile", "profile_query": "profile"}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OperatorProfile",
    "configure_tracing",
    "current_span",
    "global_registry",
    "log_event",
    "new_trace_id",
    "profile_query",
    "record_span",
    "span",
    "start_trace",
    "tracing_configured",
    "use_span",
]
