"""Service resilience: deadlines, admission control, graceful shutdown.

The hardening layer between the HTTP handler and the engine (see
DESIGN.md, "Resilience").  Everything here is mechanism, injectable and
clock-parameterized so the contracts are provable in tests without
sleeps:

* :class:`Deadline` — a monotonic per-request time budget, propagated
  from clients via the ``X-Mahif-Deadline-Ms`` header.  :meth:`run`
  executes a computation with a hard server-side timeout: on expiry the
  request gets a fast 504 while the abandoned worker thread finishes
  (and may still populate the result cache) in the background.
* :class:`AdmissionController` — a bounded in-flight slot pool.  When
  all slots are taken, new compute requests are *shed* with 503 +
  ``Retry-After`` instead of queueing without bound: under overload,
  bounded latency for admitted requests beats unbounded latency for
  everyone (goodput over throughput — measured by
  ``benchmarks/bench_resilience.py``).
* :class:`InFlightTracker` — request draining for graceful shutdown:
  new work is refused (503) while in-flight requests run to completion,
  then stores are flushed and closed.
* :class:`IdempotencyCache` — bounded per-history replay cache keyed by
  client-chosen idempotency keys, so a retried append (the client
  retries transport errors it cannot distinguish from lost responses)
  never double-appends.
* :func:`backoff_delay` — the client's exponential-backoff-with-jitter
  schedule, shared here so server defaults and client behavior are
  specified in one place.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from ..core.degradation import degradation_snapshot
from ..obs.metrics import Counter

__all__ = [
    "AdmissionController",
    "Deadline",
    "DeadlineExceeded",
    "IdempotencyCache",
    "InFlightTracker",
    "Overloaded",
    "ResilienceConfig",
    "ServiceError",
    "backoff_delay",
    "resilience_snapshot",
]


class ServiceError(Exception):
    """An error with an HTTP status, reported as ``{"error": ...}``.

    ``retryable`` marks errors a client may safely retry (the request
    had no effect); ``retry_after`` is the server's backoff hint in
    seconds, sent as a ``Retry-After`` header.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        *,
        retryable: bool = False,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retryable = retryable
        self.retry_after = retry_after


class Overloaded(ServiceError):
    """503: every in-flight slot is taken (or the server is draining).
    The request was not processed — always safe to retry after backing
    off."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(
            message, status=503, retryable=True, retry_after=retry_after
        )


class DeadlineExceeded(ServiceError):
    """504: the request's deadline budget ran out server-side."""

    def __init__(self, message: str) -> None:
        super().__init__(message, status=504)


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables for the serving tier's overload and failure behavior."""

    #: Concurrent compute (whatif/batch) requests admitted; beyond this,
    #: requests are shed with 503 + Retry-After.  0 disables admission
    #: control (never shed — benchmark baseline only).
    max_in_flight: int = 32
    #: Backoff hint sent with every 503.
    retry_after: float = 0.25
    #: Server-side default deadline for compute requests when the client
    #: sends none (milliseconds); None = no server-side timeout.
    default_deadline_ms: int | None = None
    #: Largest accepted request body; beyond it the request is refused
    #: with 413 before any of the body is read.
    max_body_bytes: int = 16 * 1024 * 1024
    #: How long graceful shutdown waits for in-flight requests to drain.
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.max_in_flight < 0:
            raise ValueError("max_in_flight must be >= 0")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.retry_after <= 0:
            raise ValueError("retry_after must be > 0")
        if (
            self.default_deadline_ms is not None
            and self.default_deadline_ms < 1
        ):
            raise ValueError("default_deadline_ms must be >= 1")


class Deadline:
    """A monotonic time budget for one request."""

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._expires = clock() + seconds

    @classmethod
    def after_ms(
        cls, ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(ms / 1000.0, clock)

    def remaining(self) -> float:
        return self._expires - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, what: str) -> None:
        if self.expired:
            raise DeadlineExceeded(f"deadline exceeded before {what}")

    def run(self, fn: Callable[[], Any], what: str = "computation") -> Any:
        """Run ``fn`` with a hard timeout of the remaining budget.

        The computation runs in a worker thread; on timeout this raises
        :class:`DeadlineExceeded` and the thread is *abandoned* — it
        cannot be cancelled mid-Python, but it is daemonic-by-ownership
        (its side effects are cache writes under locks, which stay
        consistent) and its result is discarded.
        """
        self.check(what)
        outcome: list = [None, None]  # [result, exception]
        done = threading.Event()

        def _worker() -> None:
            try:
                outcome[0] = fn()
            # repro-lint: allow[swallow-baseexception] -- captured only to re-raise in the waiter
            except BaseException as exc:
                outcome[1] = exc
            finally:
                done.set()

        thread = threading.Thread(
            target=_worker, name="mahif-deadline-worker", daemon=True
        )
        thread.start()
        if not done.wait(timeout=max(self.remaining(), 0.0)):
            raise DeadlineExceeded(f"deadline exceeded during {what}")
        if outcome[1] is not None:
            raise outcome[1]
        return outcome[0]


class AdmissionController:
    """Bounded in-flight compute slots with shed counting.

    ``limit=0`` disables shedding (every request admitted).  Admission
    is non-blocking by design: a full server answers "come back later"
    in microseconds instead of parking the request on an unbounded
    queue it may never leave.
    """

    def __init__(self, limit: int, retry_after: float) -> None:
        self.limit = limit
        self.retry_after = retry_after
        self._lock = threading.Lock()
        self._in_flight = 0
        # The shed count is a pure metric (nothing reads it to make
        # decisions), so it lives in a per-instance obs Counter that the
        # owning server registers onto its /metrics registry — one
        # source of truth for /health and the Prometheus scrape.
        self.shed_counter = Counter(
            "mahif_shed_total",
            "Requests shed by admission control (503 + Retry-After).",
        )

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def shed_total(self) -> int:
        return int(self.shed_counter.value())

    def try_enter(self) -> bool:
        with self._lock:
            if self.limit and self._in_flight >= self.limit:
                shed = True
            else:
                shed = False
                self._in_flight += 1
        if shed:
            self.shed_counter.inc()
        return not shed

    def enter(self) -> None:
        if not self.try_enter():
            raise Overloaded(
                f"server at capacity ({self.limit} in-flight requests); "
                "retry after backoff",
                self.retry_after,
            )

    def leave(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def __enter__(self) -> "AdmissionController":
        self.enter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.leave()


class InFlightTracker:
    """Counts requests being handled, for graceful-shutdown draining."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._count = 0
        self._draining = False

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def enter(self) -> None:
        with self._lock:
            self._count += 1

    def leave(self) -> None:
        with self._lock:
            self._count -= 1
            if self._count == 0:
                self._idle.notify_all()

    def begin_drain(self) -> None:
        with self._lock:
            self._draining = True

    def wait_idle(self, timeout: float) -> bool:
        """Block until no requests are in flight (True) or ``timeout``
        elapses (False)."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._count > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
            return True


class IdempotencyCache:
    """Bounded LRU of append responses keyed by client idempotency keys.

    Replaying a key returns the recorded response without re-executing —
    standard idempotency-key semantics: one key names one logical
    request, so a retry with the same key after a lost response must see
    the original outcome, not a second append.  The cache is in-memory
    and per-process: keys do not survive a restart (after which the
    client's retry window has long passed).
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._capacity = capacity
        self._entries: OrderedDict[str, dict] = OrderedDict()

    def get(self, key: str) -> dict | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, response: dict) -> None:
        self._entries[key] = response
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


def backoff_delay(
    attempt: int,
    *,
    base: float = 0.1,
    cap: float = 5.0,
    rng: Callable[[], float] | None = None,
) -> float:
    """Delay before retry number ``attempt`` (0-based): exponential
    growth ``base * 2**attempt`` capped at ``cap``, scaled by equal
    jitter in ``[0.5, 1.0]`` so a burst of shed clients does not retry
    in lockstep.  ``rng() -> [0, 1)`` is injectable for deterministic
    tests (defaults to ``random.random``)."""
    if rng is None:
        import random

        rng = random.random
    return min(cap, base * (2.0 ** attempt)) * (0.5 + 0.5 * rng())


def resilience_snapshot(
    admission: AdmissionController,
    tracker: InFlightTracker,
    extra: dict | None = None,
) -> dict:
    """The ``/health`` resilience section: admission + drain state +
    process-wide degradation counters."""
    payload = {
        "in_flight": admission.in_flight,
        "max_in_flight": admission.limit,
        "shed_total": admission.shed_total,
        "draining": tracker.draining,
        "degradation": degradation_snapshot(),
    }
    if extra:
        payload.update(extra)
    return payload
