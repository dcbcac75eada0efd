"""Resilient stdlib client for the what-if service's JSON API.

Pure ``urllib.request`` — no dependencies beyond the standard library,
mirroring the server side.  On top of the PR-4 thin transport, the
client now implements the client half of the resilience contract
(DESIGN.md, "Resilience"):

* **Bounded retries with exponential backoff + jitter** on 503 shed
  responses and transport errors, honoring the server's ``Retry-After``
  hint.  The backoff schedule is :func:`~repro.service.resilience.
  backoff_delay`; ``sleep``/``rng``/``clock`` are injectable so the
  schedule is unit-testable without real sleeping.
* **Idempotency keys on append**: every :meth:`append` call carries a
  fresh key, so a retry after a lost response replays the recorded
  outcome server-side instead of double-appending.  Registration is
  *not* transport-retried (a lost 201 is indistinguishable from a lost
  request), but 503s — guaranteed shed before processing — retry for
  every call.
* **Deadline propagation**: a per-call deadline budget caps total time
  across attempts and travels to the server as ``X-Mahif-Deadline-Ms``
  so it can stop computing an answer nobody is waiting for.
* **Trace propagation**: every logical call mints one trace id and
  sends it as ``X-Mahif-Trace`` on *every* attempt, so server-side
  traces stitch retries of one request into a single story.

Raises :class:`ServiceClientError` carrying the server's one-line error
message (or the transport failure), the HTTP status, a machine-readable
``retryable`` flag, and the server's ``retry_after`` hint in seconds.

    client = ServiceClient("http://127.0.0.1:8734", retries=3)
    client.register("orders", database, history_sql=script)
    answer = client.whatif(
        "orders",
        {"replace": [[1, "UPDATE Orders SET Fee = 0 WHERE Price >= 60"]]},
    )
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
import uuid
from typing import Any, Callable, Sequence

from ..obs.trace import new_trace_id
from ..relational.database import Database
from ..relational.history import History
from ..store import encode_database, encode_statement
from .resilience import backoff_delay

__all__ = ["ServiceClient", "ServiceClientError"]

#: Statuses that are safe to retry for *any* request: the server sheds
#: 503 before the route runs, so the request had no effect.
_RETRYABLE_STATUSES = frozenset({503})


class ServiceClientError(Exception):
    """A failed service call.

    ``status`` is the HTTP status (0 when the server was unreachable);
    ``retryable`` is True when retrying the same call is safe and might
    succeed (503 sheds, transport errors on idempotent calls);
    ``retry_after`` is the server's backoff hint in seconds, when one
    was sent.
    """

    def __init__(
        self,
        message: str,
        status: int = 0,
        *,
        retryable: bool = False,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retryable = retryable
        self.retry_after = retry_after


def _retry_after_of(headers) -> float | None:
    value = headers.get("Retry-After") if headers is not None else None
    if value is None:
        return None
    try:
        return max(float(value), 0.0)
    except ValueError:
        return None


class ServiceClient:
    """Client for one what-if service instance at ``url``.

    ``retries`` bounds retry *attempts beyond the first* (0 disables
    retrying).  ``deadline`` is an optional per-call budget in seconds
    across all attempts, propagated to the server.  ``sleep``, ``rng``,
    and ``clock`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 60.0,
        retries: int = 2,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        deadline: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Callable[[], float] | None = None,
        clock: Callable[[], float] = time.monotonic,
        opener: Callable = urllib.request.urlopen,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.deadline = deadline
        self._sleep = sleep
        self._rng = rng
        self._clock = clock
        self._opener = opener

    # -- transport ---------------------------------------------------------
    def _attempt(
        self,
        method: str,
        path: str,
        body: dict | None,
        timeout: float,
        deadline_ms: float | None,
        trace_id: str | None = None,
    ) -> dict:
        """One HTTP round trip; failures raise :class:`ServiceClientError`
        with ``retryable``/``retry_after`` set."""
        headers = {"Content-Type": "application/json"}
        if deadline_ms is not None:
            headers["X-Mahif-Deadline-Ms"] = f"{deadline_ms:.0f}"
        if trace_id is not None:
            headers["X-Mahif-Trace"] = trace_id
        request = urllib.request.Request(
            f"{self.url}{path}",
            method=method,
            data=(
                json.dumps(body).encode("utf-8")
                if body is not None
                else None
            ),
            headers=headers,
        )
        try:
            with self._opener(request, timeout=timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8"))["error"]
            except (OSError, ValueError, KeyError, TypeError):
                # Body unreadable, not JSON, or not {"error": ...}-shaped
                # (e.g. a proxy's HTML error page): fall back to the
                # status line.
                message = str(exc)
            raise ServiceClientError(
                message,
                status=exc.code,
                retryable=exc.code in _RETRYABLE_STATUSES,
                retry_after=_retry_after_of(exc.headers),
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceClientError(
                f"service unreachable at {self.url}: {exc.reason}",
                retryable=True,
            ) from None
        except TimeoutError as exc:
            raise ServiceClientError(
                f"request to {self.url} timed out: {exc}",
                retryable=True,
            ) from None

    def _call(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        retry_transport: bool = True,
    ) -> dict:
        """Issue a request with bounded retries under the call deadline.

        503s retry for every call (the server guarantees a shed request
        had no effect).  Transport errors — where the response, not the
        request, may be what was lost — retry only when
        ``retry_transport`` (idempotent calls: reads, keyed appends,
        what-if answering, which never mutates).
        """
        expires = (
            self._clock() + self.deadline
            if self.deadline is not None
            else None
        )
        # One trace id for the whole logical call: retries reuse it, so
        # the server sees each attempt as part of the same request.
        trace_id = new_trace_id()
        attempt = 0
        while True:
            remaining = (
                expires - self._clock() if expires is not None else None
            )
            if remaining is not None and remaining <= 0:
                raise ServiceClientError(
                    f"client deadline of {self.deadline:g}s exhausted "
                    f"before {method} {path} could complete",
                    status=0,
                    retryable=False,
                )
            timeout = (
                min(self.timeout, remaining)
                if remaining is not None
                else self.timeout
            )
            try:
                return self._attempt(
                    method,
                    path,
                    body,
                    timeout,
                    remaining * 1000.0 if remaining is not None else None,
                    trace_id,
                )
            except ServiceClientError as exc:
                transport = exc.status == 0
                may_retry = exc.retryable and (
                    retry_transport or not transport
                )
                if not may_retry or attempt >= self.retries:
                    raise
                delay = (
                    exc.retry_after
                    if exc.retry_after is not None
                    else backoff_delay(
                        attempt,
                        base=self.backoff_base,
                        cap=self.backoff_cap,
                        rng=self._rng,
                    )
                )
                if expires is not None:
                    budget = expires - self._clock()
                    if budget <= 0:
                        raise
                    delay = min(delay, budget)
                self._sleep(delay)
                attempt += 1

    # -- API ---------------------------------------------------------------
    def health(self) -> dict:
        return self._call("GET", "/health")

    def metrics(self) -> str:
        """The server's Prometheus text exposition, verbatim.

        ``/metrics`` replies ``text/plain`` rather than JSON, so this
        bypasses :meth:`_call` — a single unretried GET (scrapes are
        periodic; the next one covers a lost reply).
        """
        request = urllib.request.Request(
            f"{self.url}/metrics", method="GET"
        )
        try:
            with self._opener(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceClientError(
                str(exc), status=exc.code
            ) from None
        except (urllib.error.URLError, TimeoutError) as exc:
            raise ServiceClientError(
                f"service unreachable at {self.url}: {exc}",
                retryable=True,
            ) from None

    def histories(self) -> list[dict]:
        return self._call("GET", "/histories")["histories"]

    def info(self, name: str) -> dict:
        return self._call("GET", f"/histories/{name}")

    def register(
        self,
        name: str,
        database: Database,
        history: History | None = None,
        *,
        history_sql: str | None = None,
        checkpoint_interval: int | None = None,
    ) -> dict:
        body: dict[str, Any] = {
            "name": name,
            "database": encode_database(database),
        }
        if history is not None:
            body["history"] = [encode_statement(s) for s in history]
        if history_sql:
            body["history_sql"] = history_sql
        if checkpoint_interval is not None:
            body["checkpoint_interval"] = checkpoint_interval
        # Not transport-retried: registration has no idempotency key, so
        # a lost 201 response would replay as a 409.  (503s still retry.)
        return self._call(
            "POST", "/histories", body, retry_transport=False
        )

    def append(
        self,
        name: str,
        statements: Sequence | None = None,
        *,
        statements_sql: str | None = None,
        idempotency_key: str | None = None,
    ) -> dict:
        """Append statements; retries are safe by construction.

        Every call carries an idempotency key (a fresh UUID unless
        ``idempotency_key`` pins one), so a retry after a lost response
        replays the recorded outcome server-side instead of appending
        twice.
        """
        body: dict[str, Any] = {
            "idempotency_key": idempotency_key or uuid.uuid4().hex
        }
        if statements:
            body["statements"] = [encode_statement(s) for s in statements]
        if statements_sql:
            body["statements_sql"] = statements_sql
        return self._call("POST", f"/histories/{name}/append", body)

    def whatif(
        self,
        name: str,
        modifications: dict,
        *,
        method: str | None = None,
        backend: str | None = None,
        shards: int | str | None = None,
        explain: bool = False,
    ) -> dict:
        """One what-if answer.  ``shards`` is deprecated: the server
        validates and counts it, and answers unsharded.  ``explain`` asks
        for EXPLAIN ANALYZE: the result gains a per-operator
        ``"profile"`` tree and bypasses the server's result cache."""
        body: dict[str, Any] = {"modifications": modifications}
        if method is not None:
            body["method"] = method
        if backend is not None:
            body["backend"] = backend
        if shards is not None:
            body["shards"] = shards
        if explain:
            body["explain"] = True
        return self._call("POST", f"/histories/{name}/whatif", body)

    def whatif_batch(
        self,
        name: str,
        queries: Sequence[dict],
        *,
        method: str | None = None,
        backend: str | None = None,
        workers: int | None = None,
        shards: int | str | None = None,
        explain: bool = False,
    ) -> list[dict]:
        body: dict[str, Any] = {"queries": list(queries)}
        if method is not None:
            body["method"] = method
        if backend is not None:
            body["backend"] = backend
        if workers is not None:
            body["workers"] = workers
        if shards is not None:
            body["shards"] = shards
        if explain:
            body["explain"] = True
        return self._call("POST", f"/histories/{name}/batch", body)[
            "results"
        ]
