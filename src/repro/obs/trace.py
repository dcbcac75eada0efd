"""Structured request tracing: per-request span trees, JSONL sink.

One logical request gets one *trace*: a tree of timed spans named after
the pipeline stages it passed through (``request`` → ``cache`` →
``time_travel`` → ``plan`` → ``verify`` → ``execute`` → ``relation``;
see DESIGN.md "Observability" for the full taxonomy).  Trace
ids are client-propagatable via the ``X-Mahif-Trace`` header and echoed
in response payloads, so a retried request keeps one id across
attempts and a saturated server's logs can be joined to the client's.

Semantics:

* **Sampling is decided once, at the root.**  :func:`start_trace`
  consults the configured sampler; an unsampled (or unconfigured)
  trace costs a single thread-local read per :func:`span` call site —
  the ≤5% instrumentation bound on the bench_backend smoke is measured
  against exactly this dormant path.
* **Emission is at root close.**  When the root span exits, every span
  in the tree is serialized as one JSON object per line to the
  configured sink (a callable or an append-mode file path, written
  under a module lock so concurrent requests never interleave lines).
* **Ambient by thread, explicitly portable.**  The active span lives
  in a ``threading.local`` stack; code that hops threads (the deadline
  worker) re-activates the parent with :func:`use_span`.  Work that
  lands in a process-pool worker simply sees no active trace and
  records nothing — cross-process spans are reconstructed by the
  parent from returned timings via :func:`record_span`.

The clock and the sampler are injectable (:func:`configure_tracing`),
so span durations and sampling decisions are deterministic in tests.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from typing import Any, Callable

__all__ = [
    "Span",
    "configure_tracing",
    "current_span",
    "new_trace_id",
    "record_span",
    "span",
    "start_trace",
    "tracing_configured",
    "use_span",
]


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id."""
    return uuid.uuid4().hex


class _Config:
    __slots__ = ("sink", "sample", "clock", "sampler")

    def __init__(self) -> None:
        self.sink: Callable[[str], None] | None = None
        self.sample: float = 0.0
        self.clock: Callable[[], float] = time.perf_counter
        self.sampler: Callable[[], bool] | None = None


_CONFIG = _Config()
_STATE = threading.local()
_SINK_LOCK = threading.Lock()


def configure_tracing(
    sink: Callable[[str], None] | str | None,
    *,
    sample: float = 1.0,
    clock: Callable[[], float] | None = None,
    sampler: Callable[[], bool] | None = None,
) -> None:
    """Install (or with ``sink=None`` remove) the trace sink.

    ``sink`` is a callable receiving one JSON line per span, or a file
    path opened in append mode per flush.  ``sample`` is the fraction
    of roots recorded (0 disables, 1 records all); ``sampler``
    overrides it with an explicit ``() -> bool`` for deterministic
    tests.  ``clock`` parameterizes span timestamps.
    """
    if isinstance(sink, str):
        path = sink

        def sink(line: str, _path: str = path) -> None:
            with open(_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    if not 0.0 <= sample <= 1.0:
        raise ValueError("sample must be within [0, 1]")
    _CONFIG.sink = sink
    _CONFIG.sample = sample
    _CONFIG.sampler = sampler
    if clock is not None:
        _CONFIG.clock = clock


def tracing_configured() -> bool:
    return _CONFIG.sink is not None


def _sampled() -> bool:
    if _CONFIG.sink is None:
        return False
    if _CONFIG.sampler is not None:
        return bool(_CONFIG.sampler())
    if _CONFIG.sample >= 1.0:
        return True
    if _CONFIG.sample <= 0.0:
        return False
    import random

    return random.random() < _CONFIG.sample


def _stack() -> list["Span"]:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = _STATE.stack = []
    return stack


class Span:
    """One timed node in a trace tree.  Use as a context manager."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "duration",
        "attributes",
        "events",
        "children",
    )

    def __init__(
        self,
        trace_id: str,
        name: str,
        parent_id: str | None,
        attributes: dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = uuid.uuid4().hex[:16]
        self.parent_id = parent_id
        self.name = name
        self.start = _CONFIG.clock()
        self.duration: float | None = None
        self.attributes = attributes
        self.events: list[dict[str, Any]] = []
        self.children: list["Span"] = []

    # -- recording --------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def set_attributes(self, values: dict[str, Any]) -> "Span":
        self.attributes.update(values)
        return self

    def add_event(self, name: str, **attributes: Any) -> "Span":
        self.events.append(
            {
                "name": name,
                "at": _CONFIG.clock() - self.start,
                **attributes,
            }
        )
        return self

    # -- context management -----------------------------------------

    def __enter__(self) -> "Span":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and "error" not in self.attributes:
            self.attributes["error"] = type(exc).__name__
        self.duration = _CONFIG.clock() - self.start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if self.parent_id is None:
            _flush(self)

    def to_payload(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": self.attributes,
            "events": self.events,
        }


class _NoopSpan:
    """Shared do-nothing span: the dormant fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def set_attributes(self, values: dict[str, Any]) -> "_NoopSpan":
        return self

    def add_event(self, name: str, **attributes: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


def start_trace(name: str, trace_id: str | None = None, **attributes: Any):
    """Open a root span (a new trace) if tracing is configured and this
    root wins the sampling draw; otherwise return the no-op span."""
    if not _sampled():
        return _NOOP
    return Span(trace_id or new_trace_id(), name, None, dict(attributes))


def span(name: str, **attributes: Any):
    """Open a child of the thread's active span; no-op when no trace is
    active on this thread (the common, dormant case)."""
    stack = getattr(_STATE, "stack", None)
    if not stack:
        return _NOOP
    parent = stack[-1]
    child = Span(parent.trace_id, name, parent.span_id, dict(attributes))
    parent.children.append(child)
    return child


def record_span(name: str, seconds: float, **attributes: Any) -> None:
    """Attach an already-completed child span (e.g. a per-relation
    timing returned from a worker) to the active span."""
    stack = getattr(_STATE, "stack", None)
    if not stack:
        return
    parent = stack[-1]
    child = Span(parent.trace_id, name, parent.span_id, dict(attributes))
    child.start = _CONFIG.clock() - seconds
    child.duration = seconds
    parent.children.append(child)


def current_span() -> Span | None:
    """The thread's innermost active span, or None."""
    stack = getattr(_STATE, "stack", None)
    return stack[-1] if stack else None


class _UseSpan:
    __slots__ = ("_span", "_saved")

    def __init__(self, span_: Span | None) -> None:
        self._span = span_
        self._saved: list[Span] | None = None

    def __enter__(self) -> Span | None:
        self._saved = _stack()[:]
        _STATE.stack = [self._span] if self._span is not None else []
        return self._span

    def __exit__(self, *exc_info) -> None:
        _STATE.stack = self._saved or []


def use_span(span_: "Span | None") -> _UseSpan:
    """Re-activate ``span_`` as the active span on the current thread
    (deadline workers, pool threads) without finishing it on exit."""
    return _UseSpan(span_)


def _flush(root: Span) -> None:
    sink = _CONFIG.sink
    if sink is None:
        return
    lines: list[str] = []

    def _walk(node: Span) -> None:
        if node.duration is None:
            node.duration = _CONFIG.clock() - node.start
        lines.append(
            json.dumps(node.to_payload(), default=str, sort_keys=True)
        )
        for child in node.children:
            _walk(child)

    _walk(root)
    with _SINK_LOCK:
        for line in lines:
            try:
                sink(line)
            # repro-lint: allow[broad-swallow] -- a broken sink must never fail the request it observed
            except Exception:
                return
