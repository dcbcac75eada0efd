"""The HTTP face of the what-if service.

:class:`WhatIfServer` is a stdlib ``ThreadingHTTPServer`` wrapping a
:class:`~repro.service.core.WhatIfService` in a small JSON API, one OS
thread per request (the service layer is safe for concurrent use).  This
module knows HTTP and nothing else: request parsing and limits, the
route table, admission control and draining, request metrics and trace
ids.  What a route *does* is one call into the service.

API (request/response bodies are JSON unless noted)::

    GET  /health                      liveness + history names
    GET  /metrics                     Prometheus text scrape (see
                                      DESIGN.md, "Observability")
    GET  /histories                   list histories with lengths
    POST /histories                   {name, database, history_sql?|history?,
                                       checkpoint_interval?}
    GET  /histories/<name>            info incl. checkpoint versions
    POST /histories/<name>/append     {statements_sql?|statements?}
    POST /histories/<name>/whatif     {modifications, method?, backend?,
                                       shards?}
    POST /histories/<name>/batch      {queries: [spec...], method?,
                                       backend?, workers?, shards?}

``shards`` is deprecated: validated and counted, it changes no answer.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, replace
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping

from ..obs import trace
from ..obs.metrics import global_registry
from ..relational.database import Database
from ..relational.history import History
from ..relational.parser import ParseError, parse_history
from ..relational.statements import Statement
from ..store import CodecError, StoreError, decode_database, decode_statement
from .core import Answer, WhatIfService
from .resilience import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    InFlightTracker,
    Overloaded,
    ResilienceConfig,
    ServiceError,
    resilience_snapshot,
)

__all__ = ["WhatIfServer"]


class _Handler(BaseHTTPRequestHandler):
    """Routes the JSON API onto a :class:`WhatIfService`.

    Resilience behavior (see DESIGN.md, "Resilience"): compute routes
    (``whatif``/``batch``) pass admission control — beyond
    ``max_in_flight`` concurrent requests they are shed with 503 +
    ``Retry-After`` — and honor per-request deadline budgets from the
    ``X-Mahif-Deadline-Ms`` header (504 on expiry).  All POST routes
    require a ``Content-Length`` (411) within ``max_body_bytes`` (413).
    While the server drains for shutdown, every guarded request is
    refused 503 so in-flight work can complete.
    """

    app: "WhatIfServer"  # injected by WhatIfServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.app.quiet:
            super().log_message(format, *args)

    def _reply(
        self,
        payload: dict | bytes | str,
        status: int = 200,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        """Send a JSON object — a dict, or bytes that already are one
        (an answer) — or a string as Prometheus text."""
        # Keep-alive hygiene: if a route errored before reading the
        # request body, drain it now — otherwise the unread bytes would
        # be parsed as the next request's request line.  Oversized
        # bodies are not worth draining; close the connection instead.
        if not self._body_consumed:
            leftover = int(self.headers.get("Content-Length") or 0)
            if 0 < leftover <= self.app.resilience.max_body_bytes:
                self.rfile.read(leftover)
            elif leftover:
                self.close_connection = True
            self._body_consumed = True
        app, route = self.app, self._route_label
        content_type = "application/json"
        if isinstance(payload, str):
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            body = payload.encode("utf-8")
        elif isinstance(payload, bytes):
            # The id arrives in a client header: escape it.
            body = _with_fields(
                payload, b'"trace_id": %b' % json.dumps(self._trace_id).encode()
            )
        else:
            app.service.wire_encodes.inc(route=route)
            body = json.dumps(
                {**payload, "trace_id": self._trace_id}
            ).encode("utf-8")
        app.response_bytes.inc(len(body), route=route)
        phrase = self.responses.get(status, ("",))[0]
        head = [
            f"{self.protocol_version} {status} {phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"X-Mahif-Trace: {self._trace_id}",
            *(f"{name}: {value}" for name, value in (headers or {}).items()),
            "\r\n",
        ]
        self.log_request(status)
        # One write, hence one segment where it fits: after headers sent
        # on their own, a body under the MSS waits out Nagle's algorithm
        # against the client's delayed ACK (~40 ms) on every connection
        # that is reused.
        self.wfile.write("\r\n".join(head).encode("latin-1") + body)

    def _body(self) -> dict:
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise ServiceError("Content-Length required", status=411)
        try:
            length = int(raw_length)
        except ValueError:
            raise ServiceError("Content-Length must be an integer") from None
        if length > self.app.resilience.max_body_bytes:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{self.app.resilience.max_body_bytes}-byte limit",
                status=413,
            )
        raw = self.rfile.read(length) if length else b"{}"
        self._body_consumed = True
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(f"request body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    def _deadline(self) -> Deadline | None:
        """The request's deadline budget: client header, else the
        server-side default for compute routes."""
        header = self.headers.get("X-Mahif-Deadline-Ms")
        if header is not None:
            try:
                ms = float(header)
            except ValueError:
                raise ServiceError(
                    "X-Mahif-Deadline-Ms must be a number"
                ) from None
            if ms <= 0:
                raise DeadlineExceeded("deadline already expired on arrival")
            return Deadline.after_ms(ms)
        default_ms = self.app.resilience.default_deadline_ms
        return None if default_ms is None else Deadline.after_ms(default_ms)

    def _match(self) -> tuple["_Route", tuple[str, ...]]:
        """The request's row of the route table and its path arguments."""
        path = self.path.rstrip("/")
        label = "other"
        for route in _ROUTES:
            match = route.pattern.fullmatch(path)
            if match is None:
                continue
            if route.method == self.command:
                return route, match.groups()
            label = route.label  # a known path under the wrong verb
        return replace(_NO_ROUTE, label=label), ()

    def _dispatch(self) -> None:
        self._body_consumed = False  # per-request, the handler persists
        app = self.app
        route, args = self._match()
        # The trace id is assigned (or propagated from X-Mahif-Trace)
        # for *every* request and echoed in the payload and response
        # header; whether spans are recorded is the sampler's call.
        self._trace_id = (
            self.headers.get("X-Mahif-Trace") or trace.new_trace_id()
        )
        self._route_label = route.label
        app.tracker.enter()
        try:
            # Metrics are recorded *before* the reply bytes hit the
            # socket: a client that scrapes immediately after its
            # response must see its own request counted.
            with app.request_seconds.time(
                route=route.label
            ), trace.start_trace(
                "request",
                trace_id=self._trace_id,
                route=route.label,
                method=self.command,
                path=self.path,
            ) as root:
                headers: dict[str, str] | None = None
                try:
                    payload, status = self._invoke(route, args)
                except ServiceError as exc:
                    payload, status = {"error": str(exc)}, exc.status
                    if exc.retry_after is not None:
                        headers = {"Retry-After": f"{exc.retry_after:g}"}
                except (StoreError, CodecError, ParseError) as exc:
                    payload, status = {"error": str(exc)}, 400
                except Exception as exc:  # pragma: no cover - defensive
                    payload = {"error": f"internal error: {exc!r}"}
                    status = 500
                root.set_attribute("status", status)
                app.requests_total.inc(route=route.label, code=str(status))
                if callable(payload):
                    # A deferred body (the scrape) is rendered after the
                    # request is counted, so it includes itself.
                    payload = payload()
            self._reply(payload, status=status, headers=headers)
        finally:
            app.tracker.leave()

    do_GET = do_POST = _dispatch  # noqa: N815 - stdlib naming

    def _invoke(self, route: "_Route", args: tuple[str, ...]):
        """The route's handler behind the drain and admission checks."""
        if route.guarded and self.app.tracker.draining:
            raise Overloaded(
                "server is shutting down", self.app.resilience.retry_after
            )
        if route.compute:
            with self.app.admission:
                return route.handler(self, *args)
        return route.handler(self, *args)

    # -- routes ------------------------------------------------------------
    def _no_route(self):
        raise ServiceError(
            f"no such route {self.command} {self.path.rstrip('/')}", status=404
        )

    def _health(self):
        app = self.app
        return {
            "ok": True,
            "ready": not app.tracker.draining,
            "histories": app.service.history_names(),
            "resilience": resilience_snapshot(
                app.admission, app.tracker, app.service.service_stats()
            ),
        }, 200

    def _metrics(self):
        """Prometheus text scrape: the service's registry (request
        latencies, cache traffic, shed/timeout counters) merged with the
        process-global one (degradation, deprecated inputs, sqlite
        cache).  The
        body is rendered to one string and written in a single response,
        so concurrent scrapes never observe torn lines."""
        if not self.app.metrics_enabled:
            raise ServiceError(
                "metrics are disabled on this server", status=404
            )
        return partial(self.app.service.metrics.render, global_registry()), 200

    def _list(self):
        service = self.app.service
        return {
            "histories": [
                service.info(name) for name in service.history_names()
            ]
        }, 200

    def _info(self, name: str):
        return self.app.service.info(name), 200

    def _register(self):
        body = self._body()
        if "database" not in body:
            raise ServiceError('register requires a "database" payload')
        database = decode_database(body["database"])
        if not isinstance(database, Database):
            raise ServiceError("register requires a set-semantics database")
        history = _statements_of(body, "history")
        info = self.app.service.register(
            body.get("name"),
            database,
            History(tuple(history)) if history else None,
            checkpoint_interval=_int_of(body, "checkpoint_interval"),
        )
        return info, 201

    def _append(self, name: str):
        body = self._body()
        key = body.get("idempotency_key") or self.headers.get(
            "X-Mahif-Idempotency-Key"
        )
        return self.app.service.append(
            name, _statements_of(body, "statements"), idempotency_key=key
        ), 200

    def _whatif(self, name: str):
        body = self._body()
        if "modifications" not in body:
            raise ServiceError('whatif requires "modifications"')
        (answer,) = self._answer(name, body, [body["modifications"]])
        return _answer_json(answer), 200

    def _batch(self, name: str):
        body = self._body()
        specs = body.get("queries")
        if not isinstance(specs, list) or not specs:
            raise ServiceError('batch requires a non-empty "queries" array')
        results = self._answer(
            name, body, specs, workers=_int_of(body, "workers")
        )
        return b'{"results": [%b]}' % b", ".join(
            map(_answer_json, results)
        ), 200

    def _answer(self, name: str, body: dict, specs: list, workers=None):
        """The request fields the two compute routes share."""
        return self.app.service.answer(
            name,
            specs,
            method=body.get("method"),
            backend=body.get("backend"),
            workers=workers,
            shards=body.get("shards"),
            deadline=self._deadline(),
            explain=bool(body.get("explain")),
            route=self._route_label,
        )


@dataclass(frozen=True)
class _Route:
    method: str
    pattern: re.Pattern
    #: The ``route`` label of the request metrics.  Bounded on purpose:
    #: raw paths would make every history name a new series.
    label: str
    handler: Callable
    #: Runs engine computation: passes admission control.
    compute: bool = False
    #: Refused with 503 while the server drains.  Health and metrics are
    #: not: they are how orchestrators *see* draining and overload.
    guarded: bool = True


_NO_ROUTE = _Route("", re.compile(""), "other", _Handler._no_route)

_NAME = r"/histories/([^/]+)"

#: Every route of the API; a request is matched against it once.
_ROUTES = (
    _Route("POST", re.compile(_NAME + "/whatif"), "whatif",
           _Handler._whatif, compute=True),
    _Route("POST", re.compile(_NAME + "/batch"), "batch",
           _Handler._batch, compute=True),
    _Route("POST", re.compile(_NAME + "/append"), "append", _Handler._append),
    _Route("GET", re.compile(_NAME), "info", _Handler._info),
    _Route("GET", re.compile("/histories"), "histories", _Handler._list),
    _Route("POST", re.compile("/histories"), "histories", _Handler._register),
    _Route("GET", re.compile("|/health"), "health", _Handler._health,
           guarded=False),
    _Route("GET", re.compile("/metrics"), "metrics", _Handler._metrics,
           guarded=False),
)


def _with_fields(body: bytes, fields: bytes) -> bytes:
    """``body`` — a non-empty JSON object — with ``fields``
    (``"name": value, ...``) added at its end, in one copy."""
    return b"".join((memoryview(body)[:-1], b", ", fields, b"}"))


def _answer_json(answer: Answer) -> bytes:
    """One answer as a client reads it: the bytes it was encoded to when
    it was computed, closed by the two fields that differ between one
    response to it and the next — a hit is a hit, and an entry retained
    across an append reports the new length."""
    return _with_fields(
        answer.body,
        b'"history_length": %d, "cached": %s'
        % (answer.history_length, b"true" if answer.cached else b"false"),
    )


def _int_of(body: Mapping, key: str) -> int | None:
    """An optional integer body field; bad values are a 400, not a 500."""
    value = body.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ServiceError(f'"{key}" must be an integer')
    try:
        return int(value)
    except ValueError:
        raise ServiceError(f'"{key}" must be an integer') from None


def _statements_of(body: Mapping, key: str) -> list[Statement]:
    """Statements from a request body: ``<key>`` (codec-encoded list)
    and/or ``<key>_sql`` (a ``;``-separated SQL script)."""
    statements: list[Statement] = []
    encoded = body.get(key)
    if encoded is not None:
        if not isinstance(encoded, list):
            raise ServiceError(f'"{key}" must be a list of statements')
        statements.extend(decode_statement(item) for item in encoded)
    sql = body.get(f"{key}_sql")
    if sql:
        try:
            statements.extend(parse_history(sql))
        except ParseError as exc:
            raise ServiceError(f'unparseable "{key}_sql": {exc}') from None
    return statements


class WhatIfServer:
    """A :class:`ThreadingHTTPServer` serving a :class:`WhatIfService`.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  ``start_background()`` serves from a daemon thread
    (tests, benchmarks); ``serve_forever()`` blocks (the CLI).

    ``resilience`` tunes admission control, deadlines, body limits, and
    drain behavior (defaults are production-shaped; see
    :class:`~repro.service.resilience.ResilienceConfig`).
    :meth:`shutdown` is graceful by default: stop accepting, shed new
    requests 503, wait for in-flight requests to complete (up to
    ``drain_timeout``), then flush and close every store.
    """

    def __init__(
        self,
        service: WhatIfService,
        host: str = "127.0.0.1",
        port: int = 8734,
        *,
        quiet: bool = True,
        resilience: ResilienceConfig | None = None,
        metrics: bool = True,
    ) -> None:
        self.resilience = resilience or ResilienceConfig()
        self.admission = AdmissionController(
            self.resilience.max_in_flight, self.resilience.retry_after
        )
        self.tracker = InFlightTracker()
        # Server-owned instruments live on the *service's* registry so
        # one /metrics scrape covers both layers.  When several servers
        # wrap one service (tests mostly), the last one wins the
        # server-scoped names — unregister-then-register keeps repeat
        # construction from raising.
        registry = service.metrics
        registry.unregister("mahif_shed_total")
        registry.register(self.admission.shed_counter)
        registry.unregister("mahif_in_flight")
        registry.gauge(
            "mahif_in_flight",
            "Admitted compute requests currently executing.",
            callback=lambda: self.admission.in_flight,
        )
        self.request_seconds = registry.histogram(
            "mahif_request_seconds",
            "HTTP request latency by route, seconds.",
            ("route",),
        )
        self.requests_total = registry.counter(
            "mahif_requests_total",
            "HTTP requests served, by route and status code.",
            ("route", "code"),
        )
        self.response_bytes = registry.counter(
            "mahif_response_bytes_total",
            "HTTP response body bytes sent, by route.",
            ("route",),
        )
        self.service = service
        self.quiet = quiet
        self.metrics_enabled = metrics
        self._httpd = ThreadingHTTPServer(
            (host, port), type("_BoundHandler", (_Handler,), {"app": self})
        )
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def start_background(self) -> "WhatIfServer":
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="mahif-whatif-server",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def shutdown(self, *, drain: bool | None = None) -> bool:
        """Stop the server; returns True when the drain fully completed.

        Graceful by default: (1) mark draining, so every new request is
        shed with 503 + Retry-After while health keeps answering with
        ``ready: false``; (2) stop the accept loop; (3) wait up to
        ``drain_timeout`` for in-flight requests to finish writing their
        responses; (4) close the listening socket and flush + close the
        stores.  ``drain=False`` skips step (3) (tests, emergencies).
        """
        if drain is None:
            drain = True
        self.tracker.begin_drain()
        self._httpd.shutdown()
        drained = True
        if drain:
            drained = self.tracker.wait_idle(
                timeout=self.resilience.drain_timeout
            )
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.service.close()
        return drained
