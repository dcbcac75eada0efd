"""Backend-registry edge cases: unknown names, immutability, precedence.

Covers ``repro.relational.exec.backend``: rejection of unknown backend
names at every entry point that takes one, the registry being immutable
(there is no settable default to corrupt), and the two ways a backend is
chosen — *call argument* and *engine config*.
"""

import dataclasses

import pytest

from repro.core import (
    HistoricalWhatIfQuery,
    Mahif,
    MahifConfig,
    Replace,
    naive_what_if,
)
from repro.obs.profile import profile_query
from repro.relational import (
    BACKENDS,
    BACKEND_COMPILED,
    BACKEND_INTERPRETED,
    BACKEND_SQLITE,
    BACKEND_VECTOR,
    BagDatabase,
    Database,
    History,
    Relation,
    Schema,
    apply_statement_bag,
    evaluate_query,
    evaluate_query_bag,
    execute_history_bag,
)
from repro.relational.algebra import RelScan, Select
from repro.relational.exec import resolve_backend, sqlite_cache_info
from repro.relational.exec import backend as seam
from repro.relational.exec.sql_backend import clear_sqlite_cache
from repro.relational.expressions import col, gt
from repro.relational.statements import UpdateStatement
from repro.service import (
    ServiceClient,
    ServiceClientError,
    WhatIfServer,
    WhatIfService,
)

UNKNOWN = ["postgres", "", "SQLITE", "compiled ", "vectorized"]


def make_db():
    return Database(
        {"R": Relation.from_rows(Schema.of("a", "k"), [(1, 0), (5, 1)])}
    )


def bump(by):
    return UpdateStatement("R", {"a": col("a") + by}, gt(col("a"), 0))


def make_query():
    return HistoricalWhatIfQuery(
        History.of(bump(1)), make_db(), (Replace(1, bump(2)),)
    )


PLAN = Select(RelScan("R"), gt(col("a"), 2))


class TestRegistry:
    def test_backends_tuple(self):
        assert BACKENDS == (
            BACKEND_COMPILED, BACKEND_INTERPRETED, BACKEND_SQLITE,
            BACKEND_VECTOR,
        )
        assert BACKENDS == ("compiled", "interpreted", "sqlite", "vector")

    @pytest.mark.parametrize("name", BACKENDS)
    def test_resolves_each_name_to_its_backend(self, name):
        backend = resolve_backend(name)
        assert backend.name == (
            BACKEND_COMPILED if name == BACKEND_VECTOR else name
        )
        assert backend.pool_kind == (
            "thread" if name == "sqlite" else "process"
        )

    def test_vector_is_compiled(self):
        """One query compiler: ``"vector"`` is an accepted name for the
        very executor ``"compiled"`` names, and an engine configured
        with it runs (and reports) ``"compiled"``."""
        assert resolve_backend("vector") is resolve_backend("compiled")
        assert MahifConfig(backend="vector").backend == "compiled"

    def test_none_is_compiled(self):
        assert resolve_backend(None) is resolve_backend("compiled")
        assert resolve_backend() is resolve_backend("compiled")

    def test_registry_is_immutable(self):
        """No settable default, no mutable table: nothing one caller does
        can change which executor another caller's name resolves to."""
        with pytest.raises(TypeError):
            seam._BACKENDS["compiled"] = resolve_backend("sqlite")
        with pytest.raises(dataclasses.FrozenInstanceError):
            resolve_backend("compiled").evaluate = None
        for gone in (
            "use_backend", "set_default_backend", "get_default_backend"
        ):
            assert not hasattr(seam, gone)

    @pytest.mark.parametrize("name", UNKNOWN)
    def test_unknown_backend_rejected_everywhere(self, name):
        db = make_db()
        bag_db = BagDatabase.from_set_database(db)
        history = History.of(bump(1))
        entry_points = [
            lambda: resolve_backend(name),
            lambda: evaluate_query(PLAN, db, backend=name),
            lambda: evaluate_query_bag(PLAN, bag_db, backend=name),
            lambda: profile_query(PLAN, db, backend=name),
            lambda: bump(1).apply(db, backend=name),
            lambda: apply_statement_bag(bump(1), bag_db, backend=name),
            lambda: history.execute(db, backend=name),
            lambda: list(history.execute_with_snapshots(db, backend=name)),
            lambda: execute_history_bag(history, bag_db, backend=name),
            lambda: naive_what_if(make_query(), backend=name),
            lambda: MahifConfig(backend=name),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match="unknown execution backend"):
                call()

    @pytest.mark.parametrize("name", [n for n in UNKNOWN if n])
    def test_unknown_backend_field_is_a_400(self, tmp_path, name):
        service = WhatIfService(tmp_path / "stores")
        service.register("h", make_db(), History.of(bump(1)))
        server = WhatIfServer(service, port=0).start_background()
        try:
            client = ServiceClient(server.url)
            spec = {"replace": [[1, "UPDATE R SET a = a + 2 WHERE a > 0"]]}
            with pytest.raises(ServiceClientError) as err:
                client.whatif("h", spec, backend=name)
            assert err.value.status == 400
            assert "unknown backend" in str(err.value)
        finally:
            server.shutdown()

    def test_error_message_lists_backends(self):
        with pytest.raises(ValueError) as err:
            resolve_backend("postgres")
        for known in BACKENDS:
            assert known in str(err.value)


class TestResolutionPrecedence:
    """Two layers choose a backend — the call argument and the engine
    config — each observable through the sqlite connection cache, which
    only the sqlite backend fills."""

    def test_call_argument_is_what_runs(self):
        clear_sqlite_cache()
        db = make_db()
        before = sqlite_cache_info()["misses"]
        assert evaluate_query(PLAN, db).tuples == frozenset({(5, 1)})
        assert sqlite_cache_info()["misses"] == before
        result = evaluate_query(PLAN, db, backend="sqlite")
        assert sqlite_cache_info()["misses"] == before + 1
        assert result.tuples == frozenset({(5, 1)})

    def test_config_is_what_the_engine_runs(self):
        clear_sqlite_cache()
        query = make_query()
        before = sqlite_cache_info()["misses"]
        expected = Mahif(MahifConfig()).answer(query).delta
        assert sqlite_cache_info()["misses"] == before
        assert Mahif(MahifConfig(backend="sqlite")).answer(query).delta == (
            expected
        )
        assert sqlite_cache_info()["misses"] > before

    def test_call_argument_beats_config(self, tmp_path):
        """A request's ``backend`` wins over the service's configured
        default, and the response says which one answered."""
        service = WhatIfService(
            tmp_path / "stores", default_backend="interpreted"
        )
        service.register("h", make_db(), History.of(bump(1)))
        spec = {"replace": [[1, "UPDATE R SET a = a + 2 WHERE a > 0"]]}
        clear_sqlite_cache()
        before = sqlite_cache_info()["misses"]
        (by_default,) = service.answer("h", [spec])
        assert by_default["backend"] == "interpreted"
        assert sqlite_cache_info()["misses"] == before
        (by_argument,) = service.answer("h", [spec], backend="sqlite")
        assert by_argument["backend"] == "sqlite"
        assert sqlite_cache_info()["misses"] > before
        assert by_argument["delta"] == by_default["delta"]

    def test_two_names_of_one_executor_share_one_engine(self, tmp_path):
        """``vector`` and ``compiled`` run one executor, so the service
        keeps one engine (one version cache, one pool) for both; the
        answers still report, and are cached under, the name asked."""
        service = WhatIfService(tmp_path / "stores")
        service.register("h", make_db(), History.of(bump(1)))
        spec = {"replace": [[1, "UPDATE R SET a = a + 2 WHERE a > 0"]]}
        (compiled,) = service.answer("h", [spec], backend="compiled")
        (vector,) = service.answer("h", [spec], backend="vector")
        assert list(service._engines) == ["compiled"]
        assert (compiled["backend"], vector["backend"]) == (
            "compiled", "vector"
        )
        assert not vector["cached"]
        assert vector["delta"] == compiled["delta"]
