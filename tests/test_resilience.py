"""The resilient serving tier: admission control, deadlines, body
guards, graceful shutdown, idempotent appends, degradation fallbacks,
and the client's retry/backoff contract.

Every timing-sensitive contract is tested with injectable clocks,
sleeps, rngs, and openers — no real backoff sleeps, no flaky waits.
The only real threads are the ones the contracts are *about* (an
in-flight request during shutdown, a concurrent request hitting a full
admission controller).
"""

from __future__ import annotations

import dataclasses
import email.message
import http.client
import inspect
import io
import json
import sqlite3
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.degradation import degradation_snapshot, reset_degradation
from repro.service import (
    ResilienceConfig,
    ServiceClient,
    ServiceClientError,
    WhatIfServer,
    WhatIfService,
    backoff_delay,
)
from repro.service.resilience import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    IdempotencyCache,
    InFlightTracker,
    Overloaded,
)


@pytest.fixture(autouse=True)
def _clean_degradation():
    reset_degradation()
    yield
    reset_degradation()


def make_server(tmp_path, orders_db, paper_history, **resilience_kwargs):
    service = WhatIfService(tmp_path / "stores")
    service.register("orders", orders_db, paper_history)
    config = ResilienceConfig(**resilience_kwargs)
    return WhatIfServer(service, port=0, resilience=config)


SPEC = {
    "replace": [
        [1, "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 60"]
    ]
}


# -- backoff schedule ------------------------------------------------------


def test_backoff_delay_grows_exponentially_with_jitter():
    # rng() = 1.0 → jitter factor 1.0: the pure exponential schedule.
    full = [
        backoff_delay(a, base=0.1, cap=5.0, rng=lambda: 1.0)
        for a in range(4)
    ]
    assert full == pytest.approx([0.1, 0.2, 0.4, 0.8])
    # rng() = 0.0 → the floor of the equal-jitter window: half of full.
    half = [
        backoff_delay(a, base=0.1, cap=5.0, rng=lambda: 0.0)
        for a in range(4)
    ]
    assert half == pytest.approx([0.05, 0.1, 0.2, 0.4])


def test_backoff_delay_respects_cap():
    assert backoff_delay(30, base=0.1, cap=5.0, rng=lambda: 1.0) == 5.0
    assert backoff_delay(30, base=0.1, cap=5.0, rng=lambda: 0.0) == 2.5


# -- resilience primitives (no server) -------------------------------------


def test_admission_controller_sheds_beyond_limit():
    admission = AdmissionController(limit=2, retry_after=0.5)
    admission.enter()
    admission.enter()
    with pytest.raises(Overloaded) as excinfo:
        admission.enter()
    assert excinfo.value.status == 503
    assert excinfo.value.retryable
    assert excinfo.value.retry_after == 0.5
    assert admission.shed_total == 1
    admission.leave()
    admission.enter()  # a freed slot admits again
    assert admission.in_flight == 2


def test_admission_controller_zero_limit_never_sheds():
    admission = AdmissionController(limit=0, retry_after=0.5)
    for _ in range(100):
        admission.enter()
    assert admission.in_flight == 100
    assert admission.shed_total == 0


def test_deadline_uses_injected_clock():
    now = [100.0]
    deadline = Deadline(5.0, clock=lambda: now[0])
    assert deadline.remaining() == pytest.approx(5.0)
    assert not deadline.expired
    now[0] += 5.5
    assert deadline.expired
    with pytest.raises(DeadlineExceeded):
        deadline.check("the test")


def test_deadline_run_times_out_and_abandons_worker():
    release = threading.Event()
    deadline = Deadline(0.05)
    with pytest.raises(DeadlineExceeded):
        deadline.run(lambda: release.wait(5), "slow work")
    release.set()  # let the abandoned worker finish promptly


def test_deadline_run_propagates_worker_exception():
    deadline = Deadline(5.0)

    def boom():
        raise ValueError("from the worker")

    with pytest.raises(ValueError, match="from the worker"):
        deadline.run(boom)


def test_in_flight_tracker_wait_idle():
    tracker = InFlightTracker()
    tracker.enter()
    tracker.begin_drain()
    assert tracker.draining
    assert not tracker.wait_idle(timeout=0.05)  # still one in flight
    done = threading.Event()

    def _leave():
        tracker.leave()
        done.set()

    threading.Timer(0.05, _leave).start()
    assert tracker.wait_idle(timeout=5)
    assert done.wait(1)


def test_idempotency_cache_is_bounded_lru():
    cache = IdempotencyCache(capacity=2)
    cache.put("a", {"n": 1})
    cache.put("b", {"n": 2})
    assert cache.get("a") == {"n": 1}  # refreshes "a"
    cache.put("c", {"n": 3})  # evicts "b", the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == {"n": 1}
    assert cache.get("c") == {"n": 3}
    assert len(cache) == 2


def test_every_resilience_config_field_is_read_by_the_server():
    """A tunable that is validated and then read by nothing is a lie to
    the operator: ``idempotency_capacity`` was one (the idempotency
    table's bound is ``IdempotencyCache``'s own) and is gone."""
    import repro.service.server as server

    source = inspect.getsource(server)
    for field in dataclasses.fields(ResilienceConfig):
        assert f"resilience.{field.name}" in source, field.name
    with pytest.raises(TypeError):
        ResilienceConfig(idempotency_capacity=8)


# -- server: admission, deadlines, body guards -----------------------------


def test_overload_sheds_503_with_retry_after(
    tmp_path, orders_db, paper_history
):
    """With one in-flight slot occupied, a concurrent compute request is
    shed with 503 + Retry-After and no effect; after release, requests
    are admitted again.  No hangs, no 500s."""
    server = make_server(
        tmp_path, orders_db, paper_history,
        max_in_flight=1, retry_after=0.125,
    ).start_background()
    try:
        service = server.service
        started, release = threading.Event(), threading.Event()
        real_answer = service.answer

        def slow_answer(*args, **kwargs):
            started.set()
            assert release.wait(10), "test deadlock"
            return real_answer(*args, **kwargs)

        service.answer = slow_answer
        blocking = ServiceClient(server.url, retries=0)
        shed = ServiceClient(server.url, retries=0)
        outcome = {}

        def _blocked():
            outcome["result"] = blocking.whatif("orders", SPEC)

        thread = threading.Thread(target=_blocked)
        thread.start()
        try:
            assert started.wait(10)
            with pytest.raises(ServiceClientError) as excinfo:
                shed.whatif("orders", SPEC)
            assert excinfo.value.status == 503
            assert excinfo.value.retryable
            assert excinfo.value.retry_after == pytest.approx(0.125)
            # Health keeps answering while the server is saturated, and
            # reports the saturation.
            health = shed.health()
            assert health["ok"] and health["ready"]
            assert health["resilience"]["in_flight"] == 1
            assert health["resilience"]["shed_total"] == 1
            # Non-compute routes bypass admission control entirely.
            assert shed.info("orders")["name"] == "orders"
        finally:
            release.set()
            thread.join(timeout=10)
        assert "delta" in outcome["result"]  # the admitted request won
        service.answer = real_answer
        # The slot is free again: a fresh compute request is admitted.
        assert "delta" in shed.whatif("orders", SPEC)
    finally:
        server.shutdown()


def test_shed_request_retries_and_succeeds_with_injected_sleep(
    tmp_path, orders_db, paper_history
):
    """The client half of shedding: a 503 is retried after the server's
    Retry-After hint (recorded, not slept) and the retry succeeds."""
    server = make_server(
        tmp_path, orders_db, paper_history, retry_after=0.25
    ).start_background()
    try:
        service = server.service
        real_answer = service.answer
        calls = {"n": 0}

        def flaky_answer(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise Overloaded("synthetic overload", 0.25)
            return real_answer(*args, **kwargs)

        service.answer = flaky_answer
        sleeps: list[float] = []
        client = ServiceClient(
            server.url, retries=2, sleep=sleeps.append
        )
        answer = client.whatif("orders", SPEC)
        assert "delta" in answer
        assert calls["n"] == 2
        assert sleeps == [pytest.approx(0.25)]  # the server's hint
    finally:
        server.shutdown()


def test_deadline_expiry_returns_504(tmp_path, orders_db, paper_history):
    """A stalled computation is cut off server-side by the default
    deadline; the client gets a fast 504 (its own generous socket
    timeout never fires) and the timeout is counted in /health."""
    server = make_server(
        tmp_path, orders_db, paper_history, default_deadline_ms=150
    ).start_background()
    try:
        service = server.service
        release = threading.Event()
        real_compute = service._compute

        def stalled_compute(*args, **kwargs):
            release.wait(10)
            return real_compute(*args, **kwargs)

        service._compute = stalled_compute
        client = ServiceClient(server.url, retries=0, timeout=30.0)
        with pytest.raises(ServiceClientError) as excinfo:
            client.whatif("orders", SPEC)
        assert excinfo.value.status == 504
        assert not excinfo.value.retryable
        release.set()
        service._compute = real_compute
        health = ServiceClient(server.url).health()
        assert health["resilience"]["deadline_timeouts"] == 1
        # With the stall gone the same query answers fine under a
        # client-sent deadline (header path, plenty of budget).
        quick = ServiceClient(server.url, deadline=30.0)
        assert "delta" in quick.whatif("orders", SPEC)
    finally:
        server.shutdown()


def _raw_post(server, path, body: bytes, headers: dict) -> tuple:
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", path)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def test_missing_content_length_is_411(tmp_path, orders_db, paper_history):
    server = make_server(tmp_path, orders_db, paper_history)
    server.start_background()
    try:
        status, payload = _raw_post(
            server,
            "/histories/orders/whatif",
            b"",
            {"Content-Type": "application/json"},
        )
        assert status == 411
        assert "Content-Length" in payload["error"]
    finally:
        server.shutdown()


def test_oversized_body_is_413_before_reading(
    tmp_path, orders_db, paper_history
):
    server = make_server(
        tmp_path, orders_db, paper_history, max_body_bytes=64
    )
    server.start_background()
    try:
        big = json.dumps({"modifications": {"pad": "x" * 500}}).encode()
        status, payload = _raw_post(
            server,
            "/histories/orders/whatif",
            big,
            {
                "Content-Type": "application/json",
                "Content-Length": str(len(big)),
            },
        )
        assert status == 413
        assert "64-byte limit" in payload["error"]
        # The server survives: a small request on a new connection works.
        assert ServiceClient(server.url).health()["ok"]
    finally:
        server.shutdown()


def test_bad_deadline_header_is_400_and_expired_is_504(
    tmp_path, orders_db, paper_history
):
    server = make_server(tmp_path, orders_db, paper_history)
    server.start_background()
    try:
        body = json.dumps({"modifications": SPEC}).encode()
        base = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
        }
        status, payload = _raw_post(
            server, "/histories/orders/whatif", body,
            {**base, "X-Mahif-Deadline-Ms": "soon"},
        )
        assert status == 400
        assert "X-Mahif-Deadline-Ms" in payload["error"]
        status, payload = _raw_post(
            server, "/histories/orders/whatif", body,
            {**base, "X-Mahif-Deadline-Ms": "-5"},
        )
        assert status == 504
    finally:
        server.shutdown()


# -- graceful shutdown -----------------------------------------------------


def test_draining_sheds_everything_but_health(
    tmp_path, orders_db, paper_history
):
    server = make_server(tmp_path, orders_db, paper_history)
    server.start_background()
    try:
        server.tracker.begin_drain()
        client = ServiceClient(server.url, retries=0)
        with pytest.raises(ServiceClientError) as excinfo:
            client.whatif("orders", SPEC)
        assert excinfo.value.status == 503
        assert excinfo.value.retryable
        with pytest.raises(ServiceClientError) as excinfo:
            client.info("orders")  # reads shed too: stores are closing
        assert excinfo.value.status == 503
        health = client.health()
        assert health["ok"] and not health["ready"]
        assert health["resilience"]["draining"]
        # ...and a scrape: the shed requests are exactly what it shows.
        assert 'mahif_requests_total{route="info",code="503"} 1' in (
            client.metrics()
        )
    finally:
        server.shutdown()


def test_graceful_shutdown_completes_in_flight_request(
    tmp_path, orders_db, paper_history
):
    """The acceptance scenario: a request is mid-computation when
    shutdown starts; shutdown waits, the request completes with 200,
    and only then do the stores close."""
    server = make_server(
        tmp_path, orders_db, paper_history, drain_timeout=30.0
    ).start_background()
    service = server.service
    started, release = threading.Event(), threading.Event()
    real_answer = service.answer

    def slow_answer(*args, **kwargs):
        started.set()
        assert release.wait(10), "test deadlock"
        return real_answer(*args, **kwargs)

    service.answer = slow_answer
    outcome = {}

    def _request():
        try:
            outcome["result"] = ServiceClient(
                server.url, retries=0
            ).whatif("orders", SPEC)
        except Exception as exc:  # surfaced by the asserts below
            outcome["error"] = exc

    request_thread = threading.Thread(target=_request)
    request_thread.start()
    assert started.wait(10)

    shutdown_result = {}
    shutdown_thread = threading.Thread(
        target=lambda: shutdown_result.update(
            drained=server.shutdown()
        )
    )
    shutdown_thread.start()
    # Shutdown must be parked on the drain, not racing past it.
    assert server.tracker.draining
    assert not shutdown_result  # still waiting on the in-flight request
    release.set()
    request_thread.join(timeout=10)
    shutdown_thread.join(timeout=10)
    assert shutdown_result.get("drained") is True
    assert "error" not in outcome, f"in-flight request died: {outcome}"
    assert "delta" in outcome["result"]
    # The stores were flushed+closed afterwards: reopening sees the data.
    reopened = WhatIfService(tmp_path / "stores")
    try:
        assert reopened.history_names() == ["orders"]
    finally:
        reopened.close()


def test_fast_shutdown_skips_drain(tmp_path, orders_db, paper_history):
    server = make_server(tmp_path, orders_db, paper_history)
    server.start_background()
    assert server.shutdown(drain=False) is True  # nothing in flight


# -- idempotent append -----------------------------------------------------


def test_append_with_same_key_replays_instead_of_doubling(
    tmp_path, orders_db, paper_history
):
    server = make_server(tmp_path, orders_db, paper_history)
    server.start_background()
    try:
        client = ServiceClient(server.url)
        sql = "UPDATE Orders SET Price = Price + 1 WHERE Country = 'US';"
        first = client.append(
            "orders", statements_sql=sql, idempotency_key="key-1"
        )
        assert first["length"] == 4
        assert "idempotent_replay" not in first
        replay = client.append(
            "orders", statements_sql=sql, idempotency_key="key-1"
        )
        assert replay["idempotent_replay"] is True
        assert replay["length"] == 4  # no second append happened
        # A different key appends for real.
        second = client.append(
            "orders", statements_sql=sql, idempotency_key="key-2"
        )
        assert second["length"] == 5
    finally:
        server.shutdown()


def test_lost_append_response_retry_does_not_double_append(
    tmp_path, orders_db, paper_history
):
    """The end-to-end idempotency story: the server processes an append
    but the client never sees the response (connection dies); the
    client's automatic retry carries the same auto-generated key and
    must observe the original outcome, not append twice."""
    server = make_server(tmp_path, orders_db, paper_history)
    server.start_background()
    try:
        state = {"append_calls": 0}

        def lossy_opener(request, timeout=None):
            response = urllib.request.urlopen(request, timeout=timeout)
            if request.full_url.endswith("/append"):
                state["append_calls"] += 1
                if state["append_calls"] == 1:
                    # The server handled it; the response is lost.
                    response.read()
                    response.close()
                    raise urllib.error.URLError(
                        "simulated connection reset"
                    )
            return response

        sleeps: list[float] = []
        client = ServiceClient(
            server.url,
            retries=2,
            sleep=sleeps.append,
            rng=lambda: 1.0,
            opener=lossy_opener,
        )
        sql = "UPDATE Orders SET Price = Price + 1 WHERE Country = 'US';"
        result = client.append("orders", statements_sql=sql)
        assert state["append_calls"] == 2  # original + one retry
        assert result["idempotent_replay"] is True
        assert result["length"] == 4  # appended exactly once
        assert len(sleeps) == 1  # backed off before the retry
        # And the history really has exactly one extra statement.
        info = ServiceClient(server.url).info("orders")
        assert info["length"] == 4
    finally:
        server.shutdown()


# -- degradation: sqlite → compiled ----------------------------------------


class _BrokenSqliteEngine:
    def answer_batch(self, *args, **kwargs):
        raise sqlite3.OperationalError("injected: database is locked")


def test_sqlite_failure_degrades_to_compiled(
    tmp_path, orders_db, paper_history, capsys
):
    server = make_server(tmp_path, orders_db, paper_history)
    server.start_background()
    try:
        service = server.service
        # Every sqlite engine is poisoned; the compiled fallback is the
        # service's own.
        real_engine = service._engine
        service._engine = lambda backend: (
            _BrokenSqliteEngine()
            if backend == "sqlite"
            else real_engine(backend)
        )
        client = ServiceClient(server.url)
        answer = client.whatif("orders", SPEC, backend="sqlite")
        assert answer["backend"] == "compiled"
        assert answer["degraded_from"] == "sqlite"
        assert "delta" in answer
        health = client.health()
        assert health["resilience"]["sqlite_fallbacks"] == 1
        assert health["resilience"]["degradation"] == {
            "sqlite_fallback": 1
        }
        # The oracle: the degraded answer equals a compiled answer.
        compiled = client.whatif("orders", SPEC, backend="compiled")
        assert answer["delta"] == compiled["delta"]
    finally:
        server.shutdown()


# -- client retry behavior (no server at all) ------------------------------


def _http_503(retry_after: str | None = None) -> urllib.error.HTTPError:
    headers = email.message.Message()
    if retry_after is not None:
        headers["Retry-After"] = retry_after
    return urllib.error.HTTPError(
        "http://x/histories/h/whatif", 503, "busy", headers,
        io.BytesIO(b'{"error": "server at capacity"}'),
    )


def test_client_backoff_schedule_without_retry_after():
    attempts, sleeps = [], []

    def opener(request, timeout=None):
        attempts.append(request.full_url)
        raise _http_503()

    client = ServiceClient(
        "http://x", retries=3, backoff_base=0.1, backoff_cap=5.0,
        sleep=sleeps.append, rng=lambda: 1.0, opener=opener,
    )
    with pytest.raises(ServiceClientError) as excinfo:
        client.whatif("h", SPEC)
    assert excinfo.value.status == 503
    assert excinfo.value.retryable
    assert len(attempts) == 4  # 1 try + 3 retries
    assert sleeps == pytest.approx([0.1, 0.2, 0.4])


def test_client_honors_server_retry_after_hint():
    sleeps = []

    def opener(request, timeout=None):
        raise _http_503(retry_after="1.5")

    client = ServiceClient(
        "http://x", retries=2, sleep=sleeps.append, opener=opener
    )
    with pytest.raises(ServiceClientError) as excinfo:
        client.whatif("h", SPEC)
    assert excinfo.value.retry_after == 1.5
    assert sleeps == pytest.approx([1.5, 1.5])


def test_client_does_not_retry_non_retryable_statuses():
    attempts = []

    def opener(request, timeout=None):
        attempts.append(1)
        raise urllib.error.HTTPError(
            "http://x/h", 400, "bad", email.message.Message(),
            io.BytesIO(b'{"error": "bad spec"}'),
        )

    client = ServiceClient(
        "http://x", retries=5, sleep=lambda s: None, opener=opener
    )
    with pytest.raises(ServiceClientError) as excinfo:
        client.whatif("h", SPEC)
    assert excinfo.value.status == 400
    assert not excinfo.value.retryable
    assert len(attempts) == 1


def test_client_register_does_not_retry_transport_errors(orders_db):
    attempts = []

    def opener(request, timeout=None):
        attempts.append(1)
        raise urllib.error.URLError("connection refused")

    client = ServiceClient(
        "http://x", retries=5, sleep=lambda s: None, opener=opener
    )
    with pytest.raises(ServiceClientError) as excinfo:
        client.register("h", orders_db)
    assert excinfo.value.retryable  # the caller may retry deliberately
    assert len(attempts) == 1  # ...but the client must not, blindly


def test_client_deadline_bounds_total_retry_time():
    """The clock advances only via recorded sleeps; the client must stop
    retrying when the budget is gone and say so."""
    now = [0.0]
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        now[0] += seconds

    def opener(request, timeout=None):
        now[0] += 0.05  # each attempt costs 50ms of budget
        raise urllib.error.URLError("down")

    client = ServiceClient(
        "http://x",
        retries=100,
        backoff_base=0.2,
        deadline=1.0,
        sleep=fake_sleep,
        rng=lambda: 1.0,
        clock=lambda: now[0],
        opener=opener,
    )
    with pytest.raises(ServiceClientError) as excinfo:
        client.whatif("h", SPEC)
    assert now[0] <= 1.2  # never blew meaningfully past the budget
    assert len(sleeps) < 10  # bounded by the deadline, not by retries


def test_client_propagates_deadline_header():
    seen = {}

    def opener(request, timeout=None):
        seen["deadline"] = request.get_header("X-mahif-deadline-ms")
        seen["timeout"] = timeout
        raise urllib.error.URLError("stop here")

    client = ServiceClient(
        "http://x", retries=0, deadline=2.0, timeout=60.0,
        clock=lambda: 0.0, opener=opener,
    )
    with pytest.raises(ServiceClientError):
        client.whatif("h", SPEC)
    assert seen["deadline"] == "2000"
    assert seen["timeout"] == pytest.approx(2.0)  # min(timeout, budget)
