"""The concurrent what-if service: HTTP round trips, every-backend
equality with the in-process engine, result-cache behavior, concurrency,
and restart persistence."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    Database,
    HistoricalWhatIfQuery,
    History,
    Mahif,
    MahifConfig,
    Relation,
    Schema,
    parse_history,
)
from repro.relational.exec.backend import BACKENDS
from repro.service import (
    METHODS,
    ServiceClient,
    ServiceClientError,
    WhatIfServer,
    WhatIfService,
    modifications_from_spec,
    result_payload,
)


HISTORY_SQL = """
UPDATE Orders SET ShippingFee = 0 WHERE Price >= 50;
UPDATE Orders SET ShippingFee = ShippingFee + 5
    WHERE Country = 'UK' AND Price <= 100;
UPDATE Orders SET ShippingFee = ShippingFee - 2
    WHERE Price <= 30 AND ShippingFee >= 10;
"""


def spec_for(threshold: int) -> dict:
    return {
        "replace": [
            [1, f"UPDATE Orders SET ShippingFee = 0 "
                f"WHERE Price >= {threshold}"]
        ]
    }


def expected_delta(
    database, history, spec, *, method="R+PS+DS", backend="compiled"
):
    """The in-process oracle for one spec, as a wire delta payload."""
    query = HistoricalWhatIfQuery(
        history, database, modifications_from_spec(spec)
    )
    result = Mahif(MahifConfig(backend=backend)).answer(
        query, METHODS[method]
    )
    return result_payload(result)["delta"]


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


class TestHistoryManagement:
    def test_health_and_listing(self, client):
        health = client.health()
        assert health["ok"] and health["histories"] == ["orders"]
        (info,) = client.histories()
        assert info["name"] == "orders"
        assert info["length"] == 3
        assert info["relations"] == ["Orders"]

    def test_register_via_http_and_info(self, client, orders_db):
        info = client.register(
            "orders2", orders_db, history_sql=HISTORY_SQL,
            checkpoint_interval=2,
        )
        assert info["length"] == 3
        assert info["checkpoint_interval"] == 2
        assert 2 in info["checkpoints"]

    def test_register_duplicate_conflicts(self, client, orders_db):
        with pytest.raises(ServiceClientError) as err:
            client.register("orders", orders_db)
        assert err.value.status == 409

    def test_register_bad_name_rejected(self, client, orders_db):
        with pytest.raises(ServiceClientError) as err:
            client.register("no/slashes", orders_db)
        assert err.value.status == 400

    def test_unknown_history_404(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.whatif("nope", spec_for(60))
        assert err.value.status == 404

    def test_append_sql(self, client):
        info = client.append(
            "orders",
            statements_sql="UPDATE Orders SET Price = Price + 1 "
            "WHERE Country = 'US';",
        )
        assert info["length"] == 4


class TestAnswering:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_matches_in_process(
        self, client, orders_db, paper_history, backend
    ):
        spec = spec_for(60)
        answer = client.whatif("orders", spec, backend=backend)
        assert answer["cached"] is False
        assert answer["backend"] == backend
        assert answer["delta"] == expected_delta(
            orders_db, paper_history, spec, backend=backend
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_matches_in_process_answer_batch(
        self, client, orders_db, paper_history, backend
    ):
        specs = [spec_for(t) for t in (25, 40, 60, 75)]
        answers = client.whatif_batch("orders", specs, backend=backend)
        queries = [
            HistoricalWhatIfQuery(
                paper_history, orders_db, modifications_from_spec(spec)
            )
            for spec in specs
        ]
        engine = Mahif(MahifConfig(backend=backend))
        expected = engine.answer_batch(queries, METHODS["R+PS+DS"])
        assert [a["delta"] for a in answers] == [
            result_payload(r)["delta"] for r in expected
        ]

    def test_requested_workers_are_capped_at_the_core_count(
        self, server, monkeypatch
    ):
        """Engines and their pools are cached across requests: no
        request may size one beyond the machine's cores."""
        import os

        from repro.core import engine as engine_module

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        widths = []
        make_executor = engine_module.make_executor

        def spy(backend, workers):
            widths.append(workers)
            return make_executor(backend, workers)

        monkeypatch.setattr(engine_module, "make_executor", spy)
        specs = [spec_for(t) for t in (25, 40, 60, 75)]
        pooled = server.service.answer(
            "orders", specs, backend="sqlite", workers=64
        )
        assert widths == [2]
        serial = server.service.answer("orders", specs, backend="compiled")
        assert [a["delta"] for a in pooled] == [a["delta"] for a in serial]

    def test_methods_agree(self, client):
        spec = spec_for(60)
        deltas = {
            method: client.whatif("orders", spec, method=method)["delta"]
            for method in ("N", "R", "R+DS", "R+PS", "R+PS+DS")
        }
        assert len({repr(sorted(d.items())) for d in deltas.values()}) == 1

    def test_malformed_spec_is_400(self, client):
        for bad in (
            {"replace": [[1]]},
            {"unknown_key": []},
            {},
            {"replace": [[1, "NOT SQL !!"]]},
            {"replace": [["x", "UPDATE Orders SET Price = 1"]]},
        ):
            with pytest.raises(ServiceClientError) as err:
                client.whatif("orders", bad)
            assert err.value.status == 400

    def test_out_of_range_position_is_400(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.whatif(
                "orders",
                {"replace": [[9, "UPDATE Orders SET Price = 1"]]},
            )
        assert err.value.status == 400


class TestResultCache:
    def test_repeat_query_hits_cache(self, client):
        spec = spec_for(60)
        first = client.whatif("orders", spec)
        second = client.whatif("orders", spec)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["delta"] == first["delta"]
        info = client.info("orders")
        assert info["cache"]["hits"] >= 1

    def test_equivalent_sql_spellings_share_one_entry(self, client):
        a = client.whatif(
            "orders",
            {"replace": [[1, "UPDATE Orders SET ShippingFee = 0 "
                             "WHERE Price >= 60"]]},
        )
        b = client.whatif(
            "orders",
            {"replace": [[1, "UPDATE  Orders  SET  ShippingFee = 0  "
                             "WHERE  Price >= 60;"]]},
        )
        assert b["cached"] is True
        assert b["delta"] == a["delta"]

    def test_append_drops_overlapping_entries(
        self, client, orders_db, paper_history
    ):
        spec = spec_for(60)
        client.whatif("orders", spec)
        # the appended statement touches Orders, which carries the delta
        append_sql = (
            "UPDATE Orders SET Price = Price + 1 WHERE Country = 'US';"
        )
        info = client.append("orders", statements_sql=append_sql)
        assert info["cache_dropped"] == 1
        answer = client.whatif("orders", spec)
        assert answer["cached"] is False
        extended = History(
            tuple(paper_history) + tuple(parse_history(append_sql))
        )
        assert answer["delta"] == expected_delta(
            orders_db, extended, spec
        )

    def test_append_retains_disjoint_entries(self, tmp_path):
        """Appending to a relation outside a cached answer's delta keeps
        the entry valid — and still correct for the longer history."""
        db = Database(
            {
                "Orders": Relation.from_rows(
                    Schema.of("ID", "Price", "ShippingFee"),
                    [(1, 20, 5), (2, 60, 3)],
                ),
                "Audit": Relation.from_rows(
                    Schema.of("ID", "Flag"), [(1, 0)]
                ),
            }
        )
        history = History(
            tuple(
                parse_history(
                    "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 50;"
                )
            )
        )
        service = WhatIfService(tmp_path / "stores2")
        service.register("mixed", db, history)
        server = WhatIfServer(service, port=0).start_background()
        try:
            client = ServiceClient(server.url)
            spec = {
                "replace": [[1, "UPDATE Orders SET ShippingFee = 0 "
                                "WHERE Price >= 70"]]
            }
            first = client.whatif("mixed", spec)
            append_sql = "UPDATE Audit SET Flag = 1 WHERE ID = 1;"
            info = client.append("mixed", statements_sql=append_sql)
            assert info["cache_retained"] == 1
            assert info["cache_dropped"] == 0
            second = client.whatif("mixed", spec)
            assert second["cached"] is True
            extended = History(
                tuple(history) + tuple(parse_history(append_sql))
            )
            assert second["delta"] == expected_delta(db, extended, spec)
            assert first["delta"] == second["delta"]
        finally:
            server.shutdown()


class TestConcurrency:
    def test_concurrent_clients_get_in_process_answers(
        self, server, orders_db, paper_history
    ):
        thresholds = [20 + 5 * i for i in range(12)]
        expected = {
            t: expected_delta(orders_db, paper_history, spec_for(t))
            for t in thresholds
        }

        def probe(threshold):
            client = ServiceClient(server.url)
            return (
                threshold,
                client.whatif("orders", spec_for(threshold))["delta"],
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            # two rounds: the second exercises concurrent cache hits
            for _ in range(2):
                for threshold, delta in pool.map(probe, thresholds):
                    assert delta == expected[threshold]

    def test_concurrent_queries_and_appends_stay_consistent(
        self, tmp_path
    ):
        """Appends racing queries: every answer must match the oracle
        for *some* history length the store actually passed through."""
        db = Database(
            {
                "R": Relation.from_rows(
                    Schema.of("k", "v"), [(i, 10 * i) for i in range(6)]
                )
            }
        )
        history = History(
            tuple(parse_history("UPDATE R SET v = v + 1 WHERE k >= 2;"))
        )
        service = WhatIfService(tmp_path / "stores3")
        service.register("race", db, history)
        server = WhatIfServer(service, port=0).start_background()
        try:
            client = ServiceClient(server.url)
            spec = {"replace": [[1, "UPDATE R SET v = v + 2 WHERE k >= 2"]]}
            lengths = range(1, 6)
            oracles = {}
            h = history
            oracles[1] = expected_delta(db, h, spec)
            for n in lengths[1:]:
                h = History(
                    tuple(h)
                    + tuple(parse_history("UPDATE R SET v = v + 1 WHERE k >= 2;"))
                )
                oracles[n] = expected_delta(db, h, spec)

            def query(_):
                return client.whatif("race", spec)["delta"]

            def append(_):
                client.append(
                    "race",
                    statements_sql="UPDATE R SET v = v + 1 WHERE k >= 2;",
                )

            with ThreadPoolExecutor(max_workers=6) as pool:
                answer_futures = [
                    pool.submit(query, i) for i in range(8)
                ]
                append_futures = [
                    pool.submit(append, i) for i in range(4)
                ]
                for future in append_futures:
                    future.result()
                for future in answer_futures:
                    assert future.result() in oracles.values()
            # after the dust settles, a fresh answer matches length 5
            assert client.whatif("race", spec)["delta"] == oracles[5]
        finally:
            server.shutdown()


class TestPersistence:
    def test_service_resumes_from_disk(self, tmp_path, orders_db,
                                       paper_history):
        root = tmp_path / "stores"
        service = WhatIfService(root)
        service.register("orders", orders_db, paper_history)
        server = WhatIfServer(service, port=0).start_background()
        client = ServiceClient(server.url)
        spec = spec_for(60)
        before = client.whatif("orders", spec)["delta"]
        client.append(
            "orders",
            statements_sql="UPDATE Orders SET Price = Price + 1 "
            "WHERE Country = 'US';",
        )
        server.shutdown()

        # a fresh process (service) over the same root sees everything
        revived = WhatIfServer(
            WhatIfService(root), port=0
        ).start_background()
        try:
            client = ServiceClient(revived.url)
            info = client.info("orders")
            assert info["length"] == 4
            after = client.whatif("orders", spec)
            assert after["cached"] is False  # caches are process-local
            extended = History(
                tuple(paper_history)
                + tuple(
                    parse_history(
                        "UPDATE Orders SET Price = Price + 1 "
                        "WHERE Country = 'US';"
                    )
                )
            )
            assert after["delta"] == expected_delta(
                orders_db, extended, spec
            )
            assert before != after["delta"] or True  # values may coincide
        finally:
            revived.shutdown()


class TestRobustness:
    """Regressions for the review findings: partial appends, broken
    store directories, empty/invalid registration."""

    def test_invalid_statement_mid_append_persists_nothing(
        self, client, orders_db, paper_history
    ):
        spec = spec_for(60)
        client.whatif("orders", spec)  # populate the cache
        with pytest.raises(ServiceClientError) as err:
            client.append(
                "orders",
                statements_sql=(
                    "UPDATE Orders SET Price = Price + 1;"
                    # unknown relation: fails validation before any write
                    "UPDATE Nope SET x = 1;"
                ),
            )
        assert err.value.status == 400
        info = client.info("orders")
        assert info["length"] == 3  # nothing was appended
        assert client.whatif("orders", spec)["cached"] is True

    def test_broken_store_directory_is_skipped_on_startup(
        self, tmp_path, orders_db, paper_history
    ):
        root = tmp_path / "stores"
        service = WhatIfService(root)
        service.register("good", orders_db, paper_history)
        service.close()
        broken = root / "broken"
        broken.mkdir()
        (broken / "META.json").write_text(
            '{"format": "mahif-history-store", "version": 1, '
            '"checkpoint_interval": 32}'
        )
        (broken / "log.jsonl").touch()
        (broken / "checkpoints").mkdir()  # no base checkpoint
        revived = WhatIfService(root)
        try:
            assert revived.history_names() == ["good"]
            assert "broken" in revived.skipped_on_startup
            assert revived.info("good")["length"] == 3
        finally:
            revived.close()

    def test_register_empty_history_is_valid(self, client, orders_db):
        info = client.register("empty", orders_db)
        assert info["length"] == 0
        # and the history is usable once statements arrive
        client.append(
            "empty",
            statements_sql="UPDATE Orders SET ShippingFee = 0 "
            "WHERE Price >= 50;",
        )
        answer = client.whatif(
            "empty",
            {"replace": [[1, "UPDATE Orders SET ShippingFee = 0 "
                             "WHERE Price >= 60"]]},
        )
        assert "Orders" in answer["delta"]

    def test_invalid_history_does_not_squat_the_name(
        self, client, orders_db
    ):
        with pytest.raises(ServiceClientError) as err:
            client.register(
                "retry", orders_db,
                history_sql="UPDATE Nope SET x = 1;",
            )
        assert err.value.status == 400
        # the name is free: registering with a good history now works
        info = client.register(
            "retry", orders_db,
            history_sql="UPDATE Orders SET ShippingFee = 0 "
            "WHERE Price >= 50;",
        )
        assert info["length"] == 1

    def test_retained_cache_hit_reports_current_history_length(
        self, tmp_path
    ):
        db = Database(
            {
                "Orders": Relation.from_rows(
                    Schema.of("ID", "Price"), [(1, 20), (2, 60)]
                ),
                "Audit": Relation.from_rows(Schema.of("ID"), [(1,)]),
            }
        )
        history = History(
            tuple(parse_history("DELETE FROM Orders WHERE Price >= 50;"))
        )
        service = WhatIfService(tmp_path / "stores-len")
        service.register("h", db, history)
        server = WhatIfServer(service, port=0).start_background()
        try:
            client = ServiceClient(server.url)
            spec = {"replace": [[1, "DELETE FROM Orders WHERE Price >= 70"]]}
            first = client.whatif("h", spec)
            assert first["history_length"] == 1
            client.append("h", statements_sql="DELETE FROM Audit WHERE ID = 99;")
            second = client.whatif("h", spec)
            assert second["cached"] is True
            assert second["history_length"] == 2
        finally:
            server.shutdown()


class TestRequestValidation:
    """Bad client input is a 400 with a one-line message, never a 500."""

    def test_non_integer_body_fields_are_400(self, client, orders_db):
        import json
        import urllib.request

        def post(path, body):
            request = urllib.request.Request(
                f"{client.url}{path}",
                method="POST",
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request) as response:
                    return response.status
            except urllib.error.HTTPError as exc:
                return exc.code

        from repro.store import encode_database

        assert post("/histories", {
            "name": "bad-interval",
            "database": encode_database(orders_db),
            "checkpoint_interval": "abc",
        }) == 400
        assert post("/histories", {
            "name": 5,
            "database": encode_database(orders_db),
        }) == 400
        assert post("/histories/orders/batch", {
            "queries": [spec_for(60)],
            "workers": "two",
        }) == 400

    def test_zero_checkpoint_interval_rejected_not_defaulted(
        self, client, orders_db
    ):
        with pytest.raises(ServiceClientError) as err:
            client.register(
                "zero-k", orders_db, checkpoint_interval=0
            )
        assert err.value.status == 400
        assert "checkpoint_interval" in str(err.value)

    def test_missing_log_store_is_skipped_not_fatal(self, tmp_path,
                                                    orders_db,
                                                    paper_history):
        root = tmp_path / "stores"
        service = WhatIfService(root)
        service.register("good", orders_db, paper_history)
        service.close()
        broken = root / "nolog"
        broken.mkdir()
        (broken / "META.json").write_text(
            '{"format": "mahif-history-store", "version": 1, '
            '"checkpoint_interval": 32}'
        )
        # no log.jsonl at all (crash between META write and log touch)
        revived = WhatIfService(root)
        try:
            assert revived.history_names() == ["good"]
            assert "nolog" in revived.skipped_on_startup
        finally:
            revived.close()


class TestKeepAlive:
    def test_unread_body_on_error_route_does_not_corrupt_connection(
        self, server
    ):
        """Two pipelined requests over one keep-alive connection, the
        first erroring before its body is read: the second must still
        parse cleanly."""
        import http.client
        import json

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            body = json.dumps({"padding": "x" * 4096})
            connection.request(
                "POST", "/histories/orders/unknown-route", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            # same socket: a well-formed second request
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["ok"] is True
        finally:
            connection.close()


class TestRegistrationCleanup:
    def test_failed_registration_leaves_no_store_behind(
        self, tmp_path, orders_db
    ):
        """A register that fails mid-history must be fully retryable:
        no partial directory on disk, nothing resurrected on restart."""
        root = tmp_path / "stores-clean"
        service = WhatIfService(root)
        bad = History(
            tuple(
                parse_history(
                    "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 50;"
                )
            )
            + tuple(parse_history("UPDATE Nope SET x = 1;"))
        )
        with pytest.raises(Exception):
            service.register("retryme", orders_db, bad)
        assert not (root / "retryme").exists()
        # the same name registers cleanly afterwards
        good = History(
            tuple(
                parse_history(
                    "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 50;"
                )
            )
        )
        info = service.register("retryme", orders_db, good)
        assert info["length"] == 1
        service.close()
        # and a restart sees exactly the good history
        revived = WhatIfService(root)
        try:
            assert revived.info("retryme")["length"] == 1
        finally:
            revived.close()

    def test_register_applies_each_statement_once(
        self, tmp_path, orders_db, paper_history, monkeypatch
    ):
        """One replay: the apply that validates a statement is also the
        state the store is handed."""
        applied = []
        for cls in {type(stmt) for stmt in paper_history}:

            def counting(stmt, *args, _apply=cls.apply, **kwargs):
                applied.append(stmt)
                return _apply(stmt, *args, **kwargs)

            monkeypatch.setattr(cls, "apply", counting)
        service = WhatIfService(tmp_path / "stores-once")
        try:
            info = service.register("once", orders_db, paper_history)
        finally:
            service.close()
        assert info["length"] == len(paper_history)
        assert applied == list(paper_history)

    def test_skipped_store_directory_name_is_not_reusable(
        self, tmp_path, orders_db
    ):
        root = tmp_path / "stores-skip"
        root.mkdir()
        broken = root / "broken"
        broken.mkdir()
        (broken / "META.json").write_text(
            '{"format": "mahif-history-store", "version": 1, '
            '"checkpoint_interval": 32}'
        )
        service = WhatIfService(root)
        try:
            assert "broken" in service.skipped_on_startup
            from repro.service import ServiceError

            with pytest.raises(ServiceError, match="taken by an existing"):
                service.register("broken", orders_db)
            # the broken directory was NOT deleted by the failed attempt
            assert (broken / "META.json").exists()
        finally:
            service.close()
