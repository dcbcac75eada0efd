"""Observability through the service: the /metrics endpoint under
concurrency, trace-id propagation across client retries, server-side
trace emission, and EXPLAIN ANALYZE over the HTTP API."""

import io
import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import trace
from repro.service import (
    ServiceClient,
    ServiceClientError,
    WhatIfServer,
    WhatIfService,
)

from test_obs import parse_exposition

SPEC = {
    "replace": [
        [1, "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 60"]
    ]
}


@pytest.fixture(autouse=True)
def _tracing_reset():
    yield
    trace.configure_tracing(None)


@pytest.fixture
def server(tmp_path, orders_db, paper_history):
    service = WhatIfService(tmp_path / "stores")
    service.register("orders", orders_db, paper_history)
    server = WhatIfServer(service, port=0).start_background()
    yield server
    server.shutdown()


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestMetricsEndpoint:
    def test_scrape_is_valid_exposition(self, client):
        client.whatif("orders", SPEC)
        samples = parse_exposition(client.metrics())
        # Request accounting from the handler...
        assert samples['mahif_requests_total{route="whatif",code="200"}'] == 1
        assert (
            samples['mahif_request_seconds_count{route="whatif"}'] == 1
        )
        assert samples['mahif_request_seconds_bucket{route="whatif",le="+Inf"}'] == 1
        # ...admission control state...
        assert samples["mahif_in_flight"] == 0
        assert samples["mahif_shed_total"] == 0
        # ...the service's cache counters...
        assert samples['mahif_result_cache_misses_total{history="orders"}'] == 1
        # ...and process-global families merged into the same scrape.
        assert "mahif_deprecated_input_total" in client.metrics()
        assert any(
            series.startswith("mahif_sqlite_") for series in samples
        )

    def test_cache_hits_and_invalidations_counted(self, client):
        first = client.whatif("orders", SPEC)
        again = client.whatif("orders", SPEC)
        assert not first["cached"] and again["cached"]
        samples = parse_exposition(client.metrics())
        assert samples['mahif_result_cache_hits_total{history="orders"}'] == 1
        assert samples['mahif_result_cache_misses_total{history="orders"}'] == 1
        assert samples['mahif_result_cache_entries{history="orders"}'] == 1
        assert client.info("orders")["cache"]["entries"] == 1
        # An append touching the cached delta's relation drops the entry.
        client.append(
            "orders",
            statements_sql="UPDATE Orders SET Price = Price + 1 "
            "WHERE Country = 'US';",
        )
        samples = parse_exposition(client.metrics())
        assert (
            samples[
                'mahif_result_cache_invalidations_total{history="orders"}'
            ]
            >= 1
        )
        assert samples['mahif_result_cache_entries{history="orders"}'] == 0
        assert client.info("orders")["cache"]["entries"] == 0

    def test_stage_seconds_observe_each_miss_once(self, server, client):
        """``mahif_stage_seconds{stage}``: one ``compute`` and one
        ``encode`` observation per request that missed, none for a hit
        (a count, not a clock)."""
        client.whatif("orders", SPEC)
        client.whatif("orders", SPEC)
        client.whatif_batch("orders", [SPEC, {"delete_stmt": [1]}])
        samples = parse_exposition(client.metrics())
        for stage in ("compute", "encode"):
            assert samples[
                f'mahif_stage_seconds_count{{stage="{stage}"}}'
            ] == 2
            assert samples[f'mahif_stage_seconds_sum{{stage="{stage}"}}'] > 0

    def test_stage_seconds_observe_each_append_stage_reached(self, client):
        """An append is observed once in ``apply`` and once in
        ``persist``; one whose statement does not apply is observed in
        ``apply`` and never reaches ``persist`` (a count, not a clock)."""

        def counts():
            samples = parse_exposition(client.metrics())
            return tuple(
                samples.get(f'mahif_stage_seconds_count{{stage="{stage}"}}', 0)
                for stage in ("apply", "persist")
            )

        assert counts() == (0, 0)
        client.append(
            "orders",
            statements_sql="UPDATE Orders SET Price = Price + 1 "
            "WHERE Country = 'US';",
        )
        assert counts() == (1, 1)
        with pytest.raises(ServiceClientError) as err:
            client.append(
                "orders",
                statements_sql="UPDATE Orders SET Nope = 1 WHERE Price > 0;",
            )
        assert err.value.status == 400
        assert counts() == (2, 1)

    def test_metrics_scrape_counts_itself(self, client):
        first = parse_exposition(client.metrics())
        assert first['mahif_requests_total{route="metrics",code="200"}'] == 1
        # ...and, going through the same dispatch as every other route,
        # is timed (an observation lands after the body is rendered).
        second = parse_exposition(client.metrics())
        assert second['mahif_requests_total{route="metrics",code="200"}'] == 2
        assert second['mahif_request_seconds_count{route="metrics"}'] == 1

    def test_metrics_can_be_disabled(self, tmp_path, orders_db):
        service = WhatIfService(tmp_path / "stores")
        service.register("orders", orders_db)
        server = WhatIfServer(
            service, port=0, metrics=False
        ).start_background()
        try:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceClientError) as err:
                client.metrics()
            assert err.value.status == 404
            assert client.health()["ok"]  # health is unaffected
        finally:
            server.shutdown()

    def test_concurrent_scrapes_and_appends(self, server):
        """Scrapes racing appends and queries: every scrape parses
        cleanly (no torn lines) and counters only ever move up."""
        failures: list[str] = []

        def appender() -> None:
            client = ServiceClient(server.url)
            for _ in range(6):
                client.append(
                    "orders",
                    statements_sql="UPDATE Orders SET Price = Price + 0 "
                    "WHERE ID = 11;",
                )
                client.whatif("orders", SPEC)

        def scraper() -> list[dict[str, float]]:
            client = ServiceClient(server.url)
            scrapes = []
            for _ in range(10):
                try:
                    scrapes.append(parse_exposition(client.metrics()))
                except AssertionError as exc:
                    failures.append(str(exc))
            return scrapes

        with ThreadPoolExecutor(max_workers=4) as pool:
            writers = [pool.submit(appender) for _ in range(2)]
            readers = [pool.submit(scraper) for _ in range(2)]
            for writer in writers:
                writer.result()
            scrape_runs = [reader.result() for reader in readers]
        assert not failures
        for scrapes in scrape_runs:
            assert len(scrapes) == 10
            for before, after in zip(scrapes, scrapes[1:]):
                for series, value in before.items():
                    if "_total" in series or "_bucket" in series or (
                        "_count" in series
                    ):
                        assert after.get(series, 0) >= value, series


class TestTracePropagation:
    def test_every_response_carries_a_trace_id(self, client):
        # No tracing configured, no client header: the server still
        # assigns an id and echoes it.
        answer = client.whatif("orders", SPEC)
        assert len(answer["trace_id"]) == 32
        health = client.health()
        assert health["trace_id"]

    def test_client_retries_reuse_one_trace_id(self, server):
        sent_ids: list[str] = []
        state = {"failed": False}

        def opener(request, timeout=None):
            headers = {k.lower(): v for k, v in request.headers.items()}
            sent_ids.append(headers["x-mahif-trace"])
            if not state["failed"]:
                state["failed"] = True
                raise urllib.error.HTTPError(
                    request.full_url, 503, "shed",
                    {"Retry-After": "0"},
                    io.BytesIO(b'{"error": "shed"}'),
                )
            return urllib.request.urlopen(request, timeout=timeout)

        client = ServiceClient(
            server.url, retries=2, sleep=lambda s: None, opener=opener
        )
        answer = client.whatif("orders", SPEC)
        assert len(sent_ids) == 2
        assert sent_ids[0] == sent_ids[1]  # one logical request, one id
        assert answer["trace_id"] == sent_ids[0]

    def test_distinct_calls_get_distinct_ids(self, client):
        first = client.whatif("orders", SPEC)
        second = client.health()
        assert first["trace_id"] != second["trace_id"]

    def test_server_emits_span_tree_for_sampled_request(self, client):
        lines: list[str] = []
        lock = threading.Lock()

        def sink(line: str) -> None:
            with lock:
                lines.append(line)

        trace.configure_tracing(sink, sample=1.0)
        answer = client.whatif("orders", SPEC)
        with lock:
            spans = [json.loads(line) for line in lines]
        request_spans = [s for s in spans if s["name"] == "request"]
        ours = next(
            s
            for s in request_spans
            if s["trace_id"] == answer["trace_id"]
        )
        assert ours["attributes"]["route"] == "whatif"
        assert ours["attributes"]["status"] == 200
        names = {
            s["name"] for s in spans if s["trace_id"] == answer["trace_id"]
        }
        # A served miss runs the same pipeline as Mahif.answer, so it
        # leaves the same stage spans (test_obs.py checks the library's).
        assert {"request", "cache", "plan", "execute", "relation"} <= names

    def test_unsampled_requests_still_echo_ids(self, client):
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=0.0)
        answer = client.whatif("orders", SPEC)
        assert answer["trace_id"]
        assert not lines


class TestServiceExplain:
    def test_explain_payload_carries_profile(self, client):
        answer = client.whatif("orders", SPEC, explain=True)
        assert not answer["cached"]
        profile = answer["profile"]
        assert set(profile) == {"Orders"}
        for side in ("original", "modified"):
            tree = profile["Orders"][side]
            assert tree["operator"]
            assert tree["rows"] >= 0 and tree["seconds"] >= 0.0
        # The delta itself matches the uninstrumented answer.
        plain = client.whatif("orders", SPEC)
        assert answer["delta"] == plain["delta"]

    def test_explain_bypasses_the_result_cache(self, client):
        first = client.whatif("orders", SPEC, explain=True)
        second = client.whatif("orders", SPEC, explain=True)
        assert not first["cached"] and not second["cached"]
        # Explain neither reads nor seeds the cache: a plain answer
        # after two explains is still a miss, and no hit was counted.
        plain = client.whatif("orders", SPEC)
        assert not plain["cached"]
        samples = parse_exposition(client.metrics())
        assert (
            samples.get(
                'mahif_result_cache_hits_total{history="orders"}', 0
            )
            == 0
        )

    def test_plain_answers_have_no_profile(self, client):
        answer = client.whatif("orders", SPEC)
        assert "profile" not in answer

    def test_batch_explain(self, client):
        results = client.whatif_batch(
            "orders", [SPEC, {"delete_stmt": [2]}], explain=True
        )
        assert len(results) == 2
        for result in results:
            assert result["profile"]
            assert not result["cached"]
