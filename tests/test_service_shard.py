"""The what-if service under sharded execution (``--shards > 1``).

Covers the service-level contract DESIGN.md's "Sharded execution"
section states: per-request and default shard counts route through
sharded engines, answers are identical to the unsharded in-process
oracle, the result-cache fingerprint includes the shard count (entries
never cross configurations), append invalidation behaves exactly as in
the unsharded service, and a sharded server's answers survive a restart
equal to the in-process oracle over the persisted history.
"""

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
from repro.service import (
    METHODS,
    ServiceClient,
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


def expected_delta(database, history, spec, *, shards=1):
    query = HistoricalWhatIfQuery(
        history, database, modifications_from_spec(spec)
    )
    result = Mahif(MahifConfig(shards=shards)).answer(
        query, METHODS["R+PS+DS"]
    )
    return result_payload(result)["delta"]


@pytest.fixture
def sharded_server(tmp_path, orders_db, paper_history):
    service = WhatIfService(tmp_path / "stores", default_shards=2)
    service.register("orders", orders_db, paper_history)
    server = WhatIfServer(service, port=0).start_background()
    yield server
    server.shutdown()


@pytest.fixture
def client(sharded_server):
    return ServiceClient(sharded_server.url)


class TestShardedAnswering:
    def test_default_shards_match_in_process_oracle(
        self, client, orders_db, paper_history
    ):
        answer = client.whatif("orders", spec_for(60))
        assert answer["shards"] == 2
        assert answer["delta"] == expected_delta(
            orders_db, paper_history, spec_for(60)
        )

    def test_request_shards_override_and_batch(
        self, client, orders_db, paper_history
    ):
        specs = [spec_for(55), spec_for(70)]
        results = client.whatif_batch("orders", specs, shards=4)
        assert [r["shards"] for r in results] == [4, 4]
        assert [r["delta"] for r in results] == [
            expected_delta(orders_db, paper_history, spec)
            for spec in specs
        ]

    def test_invalid_shards_rejected(self, client):
        from repro.service import ServiceClientError

        with pytest.raises(ServiceClientError):
            client.whatif("orders", spec_for(60), shards=-1)
        with pytest.raises(ServiceClientError):
            client.whatif("orders", spec_for(60), shards="many")
        # every shard is a partition and a task per relation, so
        # client-supplied counts are capped (MAX_SHARDS)
        with pytest.raises(ServiceClientError):
            client.whatif("orders", spec_for(60), shards=65)

    def test_explicit_shards_one_overrides_server_default(self, client):
        answer = client.whatif("orders", spec_for(58), shards=1)
        assert answer["shards"] == 1

    def test_shard_counts_share_one_engine_per_backend(
        self, sharded_server, client, orders_db, paper_history
    ):
        """Shards travel by argument: walking the request field over
        several counts must not make the service build an engine (a
        worker pool, a version cache) per count."""
        oracle = expected_delta(orders_db, paper_history, spec_for(62))
        for shards in (1, 2, 4):
            answer = client.whatif("orders", spec_for(62), shards=shards)
            assert answer["shards"] == shards
            assert "planner" not in answer
            assert answer["cached"] is False
            assert answer["delta"] == oracle
        auto = client.whatif("orders", spec_for(62), shards="auto")
        assert auto["shards"] == auto["planner"]["shards"]
        assert auto["delta"] == oracle
        assert list(sharded_server.service._engines) == ["compiled"]


class TestShardedResultCache:
    def test_repeat_query_hits_cache(self, client):
        first = client.whatif("orders", spec_for(60))
        second = client.whatif("orders", spec_for(60))
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["delta"] == first["delta"]

    def test_fingerprint_separates_shard_counts(self, client):
        """The same query at different shard counts must not share a
        cache entry (the payload records its configuration)."""
        sharded = client.whatif("orders", spec_for(60), shards=2)
        unsharded = client.whatif("orders", spec_for(60), shards=1)
        assert sharded["cached"] is False
        assert unsharded["cached"] is False  # distinct entry, first miss
        assert unsharded["shards"] == 1
        assert unsharded["delta"] == sharded["delta"]
        assert client.whatif(
            "orders", spec_for(60), shards=1
        )["cached"] is True

    def test_append_drops_overlapping_entries(
        self, client, orders_db, paper_history
    ):
        spec = spec_for(60)
        client.whatif("orders", spec)
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
        service = WhatIfService(tmp_path / "stores2", default_shards=2)
        service.register("mixed", db, history)
        server = WhatIfServer(service, port=0).start_background()
        try:
            client = ServiceClient(server.url)
            spec = {
                "replace": [[1, "UPDATE Orders SET ShippingFee = 0 "
                                "WHERE Price >= 70"]]
            }
            first = client.whatif("mixed", spec)
            info = client.append(
                "mixed",
                statements_sql="UPDATE Audit SET Flag = 1 WHERE ID = 1;",
            )
            assert info["cache_retained"] == 1
            assert info["cache_dropped"] == 0
            second = client.whatif("mixed", spec)
            assert second["cached"] is True
            assert second["delta"] == first["delta"]
        finally:
            server.shutdown()


class TestShardedPersistence:
    def test_sharded_server_resumes_equal_to_oracle(
        self, tmp_path, orders_db, paper_history
    ):
        root = tmp_path / "stores"
        service = WhatIfService(root, default_shards=4)
        service.register("orders", orders_db, paper_history)
        server = WhatIfServer(service, port=0).start_background()
        client = ServiceClient(server.url)
        spec = spec_for(60)
        before = client.whatif("orders", spec)
        append_sql = (
            "UPDATE Orders SET Price = Price + 1 WHERE Country = 'US';"
        )
        client.append("orders", statements_sql=append_sql)
        server.shutdown()

        revived = WhatIfServer(
            WhatIfService(root, default_shards=4), port=0
        ).start_background()
        try:
            client = ServiceClient(revived.url)
            after = client.whatif("orders", spec)
            assert after["cached"] is False  # caches are process-local
            assert after["shards"] == 4
            extended = History(
                tuple(paper_history) + tuple(parse_history(append_sql))
            )
            # equal to the in-process oracle, sharded and unsharded
            assert after["delta"] == expected_delta(
                orders_db, extended, spec, shards=4
            )
            assert after["delta"] == expected_delta(
                orders_db, extended, spec, shards=1
            )
            assert before["shards"] == 4
        finally:
            revived.shutdown()


class TestShardedServiceConfig:
    def test_bad_default_shards_rejected(self, tmp_path):
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            WhatIfService(tmp_path / "s", default_shards=-1)
        with pytest.raises(ServiceError):
            WhatIfService(tmp_path / "s", default_shards=65)
        with pytest.raises(ServiceError):
            WhatIfService(tmp_path / "s", default_shards="sixteen")

    def test_auto_default_shards_accepted(self, tmp_path):
        from repro.core.planner import AUTO_SHARDS

        service = WhatIfService(tmp_path / "s", default_shards="auto")
        try:
            assert service.default_shards == AUTO_SHARDS
        finally:
            service.close()


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
