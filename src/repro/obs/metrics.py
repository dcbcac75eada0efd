"""Thread-safe metrics registry with Prometheus text exposition.

Zero dependencies: the three standard instrument kinds — monotonic
:class:`Counter`, :class:`Gauge` (set/inc or callback-backed) and
bucketed :class:`Histogram` — implemented over one lock per metric
family, rendered in `Prometheus text exposition format 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ by
:meth:`MetricsRegistry.render`.

Design points, in the repo idiom:

* **Injectable clock.**  ``Histogram.time()`` and
  ``MetricsRegistry(clock=...)`` take a ``() -> float`` so latency
  tests are deterministic (a list-popping fake clock, no sleeps).
* **Instruments work unregistered.**  ``Counter("x", "help")`` is a
  valid standalone object; a registry's factory methods mint *and*
  register.  Per-instance state (e.g. one ``AdmissionController``'s
  shed count) can therefore live in a counter owned by that instance
  while still being scraped through whichever registry it is attached
  to — no duplicated bookkeeping, no cross-instance bleed.
* **Atomic scrapes.**  ``render()`` snapshots each family under its
  lock and returns one complete string; the server writes it in a
  single response body, so concurrent scrapes and appends can never
  observe torn lines or non-monotonic counters.

Naming convention (see DESIGN.md "Observability"): every metric is
prefixed ``mahif_``, counters end in ``_total``, durations are seconds
(``_seconds``), and label names are singular (``kind``, ``route``,
``decision``).
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "reset_global_registry",
]

#: Default latency buckets (seconds): sub-millisecond to ten seconds,
#: roughly logarithmic — what-if requests span ~100us (cache hit) to
#: seconds (cold reenactment over the largest relations).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelKey = tuple[str, ...]


def _label_key(
    labelnames: tuple[str, ...], labels: Mapping[str, str]
) -> _LabelKey:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    # Prometheus accepts both; integers without a trailing ".0" keep
    # the output diff-friendly for counter-heavy scrapes.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(
    labelnames: tuple[str, ...],
    key: _LabelKey,
    extra: tuple[tuple[str, str], ...] = (),
) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, key)
    ]
    pairs.extend(f'{name}="{_escape_label_value(value)}"' for name, value in extra)
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


class _Metric:
    """Common state: name, help text, label names, one lock."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Iterable[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _header(self) -> list[str]:
        help_text = self.help.replace("\\", "\\\\").replace("\n", "\\n")
        return [
            f"# HELP {self.name} {help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """A monotonic counter, optionally labeled."""

    kind = "counter"

    def __init__(
        self, name: str, help: str, labelnames: Iterable[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; inc amount must be >= 0")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0)

    def series(self) -> dict[_LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for key, value in items:
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class Gauge(_Metric):
    """A settable value, or a live read-through via ``callback``.

    Callback gauges (``callback() -> float``) have no stored state —
    the scrape reads the owning subsystem's truth directly (e.g. the
    sqlite connection-cache size), which is the point: no second copy
    to fall out of sync.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        if callback is not None and self.labelnames:
            raise ValueError("callback gauges cannot be labeled")
        self._callback = callback
        self._values: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        if self._callback is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1, **labels: str) -> None:
        if self._callback is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        if self._callback is not None:
            return float(self._callback())
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def render(self) -> list[str]:
        lines = self._header()
        if self._callback is not None:
            try:
                value = float(self._callback())
            # repro-lint: allow[broad-swallow] -- a broken callback renders NaN, never fails the scrape
            except Exception:
                value = float("nan")
            lines.append(f"{self.name} {_format_value(value)}")
            return lines
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for key, value in items:
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Cumulative-bucket latency histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._clock = clock
        self._series: dict[_LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets)
                )
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[i] += 1
                    break
            series.total += value
            series.count += 1

    def time(self, **labels: str) -> "_Timer":
        return _Timer(self, labels, self._clock)

    def count(self, **labels: str) -> int:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            return series.count if series is not None else 0

    def sum(self, **labels: str) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            return series.total if series is not None else 0.0

    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            items = sorted(
                (key, list(s.bucket_counts), s.total, s.count)
                for key, s in self._series.items()
            )
        if not items and not self.labelnames:
            items = [((), [0] * len(self.buckets), 0.0, 0)]
        for key, bucket_counts, total, count in items:
            cumulative = 0
            for bound, n in zip(self.buckets, bucket_counts):
                cumulative += n
                labels = _render_labels(
                    self.labelnames, key, extra=(("le", repr(bound)),)
                )
                lines.append(
                    f"{self.name}_bucket{labels} {cumulative}"
                )
            labels = _render_labels(
                self.labelnames, key, extra=(("le", "+Inf"),)
            )
            lines.append(f"{self.name}_bucket{labels} {count}")
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(total)}")
            lines.append(f"{self.name}_count{plain} {count}")
        return lines


class _Timer:
    """``with histogram.time():`` — observes elapsed clock on exit."""

    def __init__(
        self,
        histogram: Histogram,
        labels: Mapping[str, str],
        clock: Callable[[], float],
    ) -> None:
        self._histogram = histogram
        self._labels = labels
        self._clock = clock
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(
            self._clock() - self._start, **self._labels
        )


class MetricsRegistry:
    """A named collection of metrics with a single text rendering.

    Factory methods are get-or-create: asking twice for the same name
    returns the same instrument (kind and labels must match), so any
    module can cheaply bind its counters at import or call time without
    coordinating ownership.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def register(self, metric: _Metric) -> _Metric:
        """Attach an externally-owned instrument (e.g. a per-instance
        counter) to this registry's scrape output."""
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is metric:
                return metric
            if existing is not None:
                raise ValueError(
                    f"metric {metric.name!r} already registered"
                )
            self._metrics[metric.name] = metric
        return metric

    def _get_or_create(self, name: str, kind: type, factory) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(metric).__name__}"
                    )
                return metric
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(
            name, Counter, lambda: Counter(name, help, labelnames)
        )

    def gauge(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> Gauge:
        return self._get_or_create(
            name, Gauge, lambda: Gauge(name, help, labelnames, callback)
        )

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name,
            Histogram,
            lambda: Histogram(
                name, help, labelnames, buckets, clock=self._clock
            ),
        )

    def unregister(self, name: str) -> None:
        with self._lock:
            self._metrics.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every stored series (callback gauges are stateless).
        Registrations survive — this is the between-tests reset."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            reset = getattr(metric, "reset", None)
            if reset is not None:
                reset()

    def render(self, *extra_registries: "MetricsRegistry") -> str:
        """Prometheus text exposition of this registry (plus any
        ``extra_registries``, e.g. the process-global one merged into a
        per-server scrape).  Later registries do not shadow earlier
        names; duplicates are skipped to keep the output valid."""
        seen: set[str] = set()
        lines: list[str] = []
        for registry in (self, *extra_registries):
            with registry._lock:
                metrics = sorted(
                    registry._metrics.items(), key=lambda kv: kv[0]
                )
            for name, metric in metrics:
                if name in seen:
                    continue
                seen.add(name)
                lines.extend(metric.render())
        return "\n".join(lines) + "\n"


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global registry: home of counters recorded by layers
    that do not know which service owns them (degradation events three
    frames below the handler, deprecated inputs, sqlite cache state)."""
    return _GLOBAL


def reset_global_registry() -> None:
    """Zero the process-global series (tests)."""
    _GLOBAL.reset()


# -- garbage-collector pauses ------------------------------------------------

class _GcHook:
    """The process's one ``gc.callbacks`` hook: collections and pause
    seconds per generation, tallied in fixed-size lists.  It takes no
    lock — a collection can start while any lock is held, this hook's
    readers' included — and needs none: collections never overlap, so
    only one hook call runs at a time."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pauses = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: Mapping[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.pauses[generation] += time.perf_counter() - self._started


class _GcTally(_Metric):
    """A counter family read from a :class:`_GcHook` tally, one series
    per generation."""

    kind = "counter"

    def __init__(self, name: str, help: str, tally: list) -> None:
        super().__init__(name, help, ("generation",))
        self._tally = tally

    def value(self, **labels: str) -> float:
        return self._tally[int(labels["generation"])]

    def reset(self) -> None:
        self._tally[:] = [type(v)() for v in self._tally]

    def render(self) -> list[str]:
        lines = self._header()
        for generation, value in enumerate(list(self._tally)):
            labels = _render_labels(self.labelnames, (str(generation),))
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


def _install_gc_hook(registry: MetricsRegistry) -> None:
    hook = _GcHook()
    gc.callbacks.append(hook)
    registry.register(_GcTally(
        "mahif_gc_collections_total",
        "Garbage collections of this process by generation.",
        hook.collections,
    ))
    registry.register(_GcTally(
        "mahif_gc_pause_seconds_total",
        "Seconds this process spent paused in garbage collections, by "
        "generation.",
        hook.pauses,
    ))


# Once per process: this module is imported once.
_install_gc_hook(_GLOBAL)
