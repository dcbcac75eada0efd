"""Process-global graceful-degradation counters.

When a layer survives a fault by degrading — the batch pool watchdog
rebuilding a broken process pool or dropping to serial execution, the
service re-answering a failed sqlite request on the compiled backend — the event
must be *visible*, or silent degradation rots into permanent slow paths
nobody notices.  Each fallback records itself here; the what-if
service's ``/health`` endpoint exposes the snapshot, and the resilience
tests assert on exact counts.

The counters live in the process-global metrics registry
(:func:`repro.obs.metrics.global_registry`) as the single
``mahif_degradation_total{kind=...}`` family — one source of truth
shared by ``/health`` (this module's snapshot) and ``/metrics`` (the
Prometheus scrape).  They are process-global rather than per-engine
because degradation happens in layers that do not know which service
owns them — a pool rebuild deep inside ``core/pool.py`` runs several
frames below the request handler.  Counts are monotonic;
:func:`reset_degradation` exists for tests.
"""

from __future__ import annotations

from ..obs.metrics import global_registry

__all__ = [
    "record_degradation",
    "degradation_snapshot",
    "reset_degradation",
]

#: Event kinds the library records (documented, not enforced — new
#: degradation paths may add kinds without touching this module):
#:
#: * ``pool_rebuild``   — a broken process pool was rebuilt once
#: * ``pool_serial``    — the rebuilt pool broke too; execution went serial
#: * ``sqlite_fallback``— a sqlite-backend error re-answered on compiled

_COUNTER = global_registry().counter(
    "mahif_degradation_total",
    "Graceful-degradation events by kind (pool_rebuild, pool_serial, "
    "sqlite_fallback).",
    ("kind",),
)


def record_degradation(kind: str, count: int = 1) -> None:
    _COUNTER.inc(count, kind=kind)


def degradation_snapshot() -> dict[str, int]:
    return {key[0]: int(value) for key, value in _COUNTER.series().items()}


def reset_degradation() -> None:
    _COUNTER.reset()
