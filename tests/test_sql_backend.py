"""Unit tests for the sqlite middleware backend.

Targeted coverage of the semantics reconciliation the differential
fuzzer exercises statistically: two-valued NULL logic, true division,
bool/int coercion, bag multiplicity encoding, statement translation,
adversarial strings, the read-only connection cache, and error parity.
"""

import pytest

from repro.relational import (
    BagDatabase,
    BagRelation,
    Database,
    History,
    Relation,
    Schema,
    evaluate_query,
    evaluate_query_bag,
    evaluate_query_bag_interpreted,
    evaluate_query_interpreted,
)
from repro.relational.algebra import (
    Difference,
    Join,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
)
from repro.relational.exec.sql_backend import (
    SqlBackendError,
    apply_statement_sqlite,
    clear_sqlite_cache,
    execute_query_sqlite,
    sqlite_cache_info,
)
from repro.relational.exec.sqlite_sql import (
    MULT_COLUMN,
    bind_value,
    condition_to_sqlite,
    query_to_sqlite,
)
from repro.relational.expressions import (
    EvaluationError,
    IsNull,
    Not,
    TRUE,
    and_,
    col,
    eq,
    gt,
    if_,
    lit,
    neq,
    or_,
)
from repro.relational.schema import SchemaError
from repro.relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    UpdateStatement,
)


def make_db():
    return Database(
        {
            "R": Relation.from_rows(
                Schema.of("a", "b"),
                [(1, 10), (2, None), (None, 30), (-2, 0)],
            ),
            "S": Relation.from_rows(
                Schema.of("a", "b"), [(1, 10), (3, None)]
            ),
        }
    )


class TestNullLogic:
    """The interpreter's 2VL must survive SQLite's 3VL."""

    def test_not_over_null_comparison_keeps_row(self):
        # NOT (a = 2): a NULL row satisfies it under 2VL; naive SQLite
        # rendering (WHERE NOT (a = 2) -> NOT NULL -> NULL) would drop it.
        db = make_db()
        plan = Select(RelScan("R"), Not(eq(col("a"), 2)))
        expected = evaluate_query_interpreted(plan, db)
        assert (None, 30) in expected.tuples
        assert evaluate_query(plan, db, backend="sqlite").tuples == expected.tuples

    def test_or_with_null_operand(self):
        db = make_db()
        plan = Select(
            RelScan("R"), or_(eq(col("a"), 99), Not(gt(col("b"), 5)))
        )
        assert (
            evaluate_query(plan, db, backend="sqlite").tuples
            == evaluate_query_interpreted(plan, db).tuples
        )

    def test_neq_null_is_false(self):
        db = make_db()
        plan = Select(RelScan("R"), neq(col("a"), col("a")))
        assert evaluate_query(plan, db, backend="sqlite").tuples == frozenset()

    def test_is_null_and_case(self):
        db = make_db()
        plan = Project(
            RelScan("R"),
            (
                (col("a"), "a"),
                (if_(IsNull(col("b")), lit(-1), col("b")), "b"),
            ),
        )
        assert (
            evaluate_query(plan, db, backend="sqlite").tuples
            == evaluate_query_interpreted(plan, db).tuples
        )


class TestArithmetic:
    def test_true_division(self):
        # Python / is true division; raw SQLite would integer-divide.
        db = Database({"R": Relation.from_rows(Schema.of("a"), [(3,)])})
        plan = Project(RelScan("R"), ((col("a") / lit(2), "q"),))
        result = evaluate_query(plan, db, backend="sqlite")
        assert result.tuples == frozenset({(1.5,)})

    def test_division_by_zero_is_null(self):
        db = Database({"R": Relation.from_rows(Schema.of("a"), [(3,)])})
        plan = Project(RelScan("R"), ((col("a") / lit(0), "q"),))
        assert evaluate_query(plan, db, backend="sqlite").tuples == frozenset(
            {(None,)}
        )

    def test_bool_int_coercion(self):
        # True joins 1, compares as 1, and survives the round trip under
        # Python's True == 1 equality.
        db = Database(
            {
                "L": Relation.from_rows(Schema.of("a"), [(True,), (False,)]),
                "R2": Relation.from_rows(Schema.of("c"), [(1,), (0.0,)]),
            }
        )
        plan = Join(RelScan("L"), RelScan("R2"), eq(col("a"), col("c")))
        assert (
            evaluate_query(plan, db, backend="sqlite").tuples
            == evaluate_query_interpreted(plan, db).tuples
        )


class TestAdversarialValues:
    def test_quote_laden_strings_are_parameterized(self):
        strings = ["O'Brien", 'say "hi"', "x');--", "ünïcode", ""]
        db = Database(
            {
                "R": Relation.from_rows(
                    Schema.of("s"), [(value,) for value in strings]
                )
            }
        )
        for value in strings:
            plan = Select(RelScan("R"), eq(col("s"), lit(value)))
            assert evaluate_query(plan, db, backend="sqlite").tuples == frozenset(
                {(value,)}
            ), value

    def test_nan_rejected_loudly(self):
        db = Database(
            {"R": Relation.from_rows(Schema.of("a"), [(float("nan"),)])}
        )
        with pytest.raises(SqlBackendError, match="NaN"):
            evaluate_query(RelScan("R"), db, backend="sqlite")

    def test_oversized_integer_rejected(self):
        with pytest.raises(SqlBackendError, match="64-bit"):
            bind_value(2**70)

    def test_reserved_multiplicity_column_rejected(self):
        db = Database(
            {"R": Relation.from_rows(Schema.of(MULT_COLUMN), [(1,)])}
        )
        with pytest.raises(SqlBackendError, match="reserved"):
            query_to_sqlite(RelScan("R"), {"R": db.schema_of("R")})

    def test_reserved_column_rejected_on_statement_path_too(self):
        # The statement-application path must raise the same polished
        # error as query translation, not leak sqlite3.OperationalError
        # from CREATE TABLE (review regression).
        from repro.relational import apply_statement_bag

        schema = Schema.of("a", MULT_COLUMN)
        db = Database({"R": Relation.from_rows(schema, [(1, 2)])})
        bag_db = BagDatabase.from_set_database(db)
        with pytest.raises(SqlBackendError, match="reserved"):
            DeleteStatement("R", TRUE).apply(db, backend="sqlite")
        with pytest.raises(SqlBackendError, match="reserved"):
            apply_statement_bag(
                DeleteStatement("R", TRUE), bag_db, backend="sqlite"
            )

    def test_case_colliding_identifiers_rejected(self):
        db = Database(
            {"R": Relation.from_rows(Schema.of("a", "A"), [(1, 2)])}
        )
        with pytest.raises(SqlBackendError, match="case-insensitive"):
            execute_query_sqlite(RelScan("R"), db)


class TestBagEncoding:
    def make_bag(self):
        return BagDatabase(
            {
                "R": BagRelation(
                    Schema.of("a", "b"),
                    {(1, 10): 3, (2, None): 2, (None, None): 1},
                ),
                "S": BagRelation(
                    Schema.of("a", "b"), {(1, 10): 1, (2, None): 5}
                ),
            }
        )

    def test_scan_preserves_multiplicity(self):
        bag = self.make_bag()
        result = evaluate_query_bag(RelScan("R"), bag, backend="sqlite")
        assert dict(result.multiplicities) == {
            (1, 10): 3, (2, None): 2, (None, None): 1
        }

    def test_projection_sums_multiplicities(self):
        bag = self.make_bag()
        plan = Project(RelScan("R"), ((col("b"), "b"),))
        result = evaluate_query_bag(plan, bag, backend="sqlite")
        assert dict(result.multiplicities) == {(10,): 3, (None,): 3}

    def test_union_all_is_additive(self):
        bag = self.make_bag()
        plan = Union(RelScan("R"), RelScan("S"))
        result = evaluate_query_bag(plan, bag, backend="sqlite")
        assert result.count_of((1, 10)) == 4
        assert result.count_of((2, None)) == 7

    def test_monus_floors_at_zero_and_matches_null_rows(self):
        bag = self.make_bag()
        plan = Difference(RelScan("R"), RelScan("S"))
        result = evaluate_query_bag(plan, bag, backend="sqlite")
        # (1,10): 3-1=2; (2,None): 2-5 floored away; (None,None) survives
        # because the NULL-safe join must match NULL keys.
        assert dict(result.multiplicities) == {(1, 10): 2, (None, None): 1}
        assert dict(result.multiplicities) == dict(
            evaluate_query_bag_interpreted(plan, bag).multiplicities
        )

    def test_join_multiplies_multiplicities(self):
        bag = BagDatabase(
            {
                "L": BagRelation(Schema.of("a"), {(1,): 2}),
                "R2": BagRelation(Schema.of("c"), {(1,): 3}),
            }
        )
        plan = Join(RelScan("L"), RelScan("R2"), eq(col("a"), col("c")))
        result = evaluate_query_bag(plan, bag, backend="sqlite")
        assert dict(result.multiplicities) == {(1, 1): 6}

    def test_singleton_has_multiplicity_one(self):
        bag = self.make_bag()
        plan = Union(
            RelScan("R"), Singleton(Schema.of("a", "b"), (1, 10))
        )
        result = evaluate_query_bag(plan, bag, backend="sqlite")
        assert result.count_of((1, 10)) == 4


class TestStatements:
    def test_update_sees_pre_update_row(self):
        # SET a = b, b = a must swap (both RHS read the original row).
        db = Database(
            {"R": Relation.from_rows(Schema.of("a", "b"), [(1, 2)])}
        )
        stmt = UpdateStatement("R", {"a": col("b"), "b": col("a")}, TRUE)
        result = stmt.apply(db, backend="sqlite")
        assert result["R"].tuples == frozenset({(2, 1)})

    def test_update_merging_rows(self):
        db = Database(
            {
                "R": Relation.from_rows(
                    Schema.of("a", "b"), [(1, 1), (2, 1), (3, 2)]
                )
            }
        )
        stmt = UpdateStatement("R", {"a": lit(0)}, eq(col("b"), 1))
        result = stmt.apply(db, backend="sqlite")
        assert result["R"].tuples == frozenset({(0, 1), (3, 2)})

    def test_update_unknown_attribute_raises_schema_error(self):
        db = make_db()
        stmt = UpdateStatement("R", {"zz": lit(1)}, TRUE)
        with pytest.raises(SchemaError, match="unknown attribute"):
            stmt.apply(db, backend="sqlite")

    def test_insert_arity_mismatch_raises_schema_error(self):
        db = make_db()
        with pytest.raises(SchemaError, match="arity"):
            InsertTuple("R", (1, 2, 3)).apply(db, backend="sqlite")

    def test_insert_select_positional_relabel(self):
        db = Database(
            {
                "R": Relation.from_rows(Schema.of("a", "b"), [(1, 2)]),
                "S": Relation.from_rows(Schema.of("x", "y"), [(7, 8)]),
            }
        )
        result = InsertQuery("R", RelScan("S")).apply(db, backend="sqlite")
        assert (7, 8) in result["R"].tuples

    def test_insert_select_arity_mismatch(self):
        db = Database(
            {
                "R": Relation.from_rows(Schema.of("a", "b"), [(1, 2)]),
                "W": Relation.from_rows(Schema.of("x", "y", "z"), [(1, 2, 3)]),
            }
        )
        with pytest.raises(SchemaError, match="arity 3 does not match"):
            InsertQuery("R", RelScan("W")).apply(db, backend="sqlite")

    def test_delete_with_null_condition(self):
        db = make_db()
        stmt = DeleteStatement("R", gt(col("b"), 5))
        via_sqlite = stmt.apply(db, backend="sqlite")
        via_interp = stmt.apply(db, backend="interpreted")
        assert via_sqlite.same_contents(via_interp)
        assert (2, None) in via_sqlite["R"].tuples  # NULL not matched

    def test_history_replay(self):
        db = make_db()
        history = History.of(
            UpdateStatement("R", {"b": col("b") + 1}, gt(col("a"), 0)),
            DeleteStatement("R", IsNull(col("a"))),
            InsertTuple("R", (9, None)),
        )
        via_sqlite = history.execute(db, backend="sqlite")
        via_interp = history.execute(db, backend="interpreted")
        assert via_sqlite.same_contents(via_interp)

    def test_untouched_relations_are_shared(self):
        db = make_db()
        result = DeleteStatement("R", TRUE).apply(db, backend="sqlite")
        assert result["S"] is db["S"]


class TestConnectionCache:
    def test_repeated_queries_reuse_connection(self):
        clear_sqlite_cache()
        db = make_db()
        plan = Select(RelScan("R"), gt(col("a"), 0))
        evaluate_query(plan, db, backend="sqlite")
        misses = sqlite_cache_info()["misses"]
        evaluate_query(plan, db, backend="sqlite")
        evaluate_query(RelScan("S"), db, backend="sqlite")
        info = sqlite_cache_info()
        assert info["misses"] == misses
        assert info["hits"] >= 2

    def test_statement_apply_does_not_poison_cache(self):
        clear_sqlite_cache()
        db = make_db()
        before = evaluate_query(RelScan("R"), db, backend="sqlite")
        DeleteStatement("R", TRUE).apply(db, backend="sqlite")
        after = evaluate_query(RelScan("R"), db, backend="sqlite")
        assert after.tuples == before.tuples  # db itself is immutable

    def test_cache_entry_dropped_when_database_collected(self):
        import gc

        clear_sqlite_cache()
        db = make_db()
        evaluate_query(RelScan("R"), db, backend="sqlite")
        assert sqlite_cache_info()["connections"] == 1
        del db
        gc.collect()
        assert sqlite_cache_info()["connections"] == 0

    def test_stale_drop_callback_does_not_evict_replacement(self):
        """Regression: a ``_drop`` registered for a *replaced* entry must
        not close the live replacement on the same key.

        Entries can be replaced while their weakref callback is still
        deliverable — ``id()`` reuse after a gc-deferred collection, or a
        set/bag reload of one database.  Pre-fix, the stale callback
        popped whatever the key currently held and closed its connection
        mid-use; the generation check makes it a no-op.  The deferred
        delivery window is simulated by holding the first entry's weakref
        and firing its callback after the replacement, exactly as the gc
        would.
        """
        import gc

        from repro.relational.exec import sql_backend as sb

        clear_sqlite_cache()
        db = make_db()
        plan = Select(RelScan("R"), gt(col("a"), 0))
        expected = evaluate_query(plan, db, backend="sqlite").tuples
        ((key, first_entry),) = sb._connections.items()
        stale_ref = first_entry.ref  # keep the callback deliverable
        # Force the replacement path for the same key: pretend the entry
        # was loaded for the other semantics, as a set/bag alternation
        # on one database would.
        first_entry.bag = not first_entry.bag
        evaluate_query(plan, db, backend="sqlite")  # mismatch -> reload
        replacement = sb._connections[key]
        assert replacement is not first_entry
        # Deliver the stale callback, as a deferred gc pass would.
        stale_ref.__callback__(stale_ref)
        gc.collect()
        # The live replacement survives: still cached, connection open.
        assert sqlite_cache_info()["connections"] == 1
        assert sb._connections[key] is replacement
        before = sqlite_cache_info()["misses"]
        assert evaluate_query(plan, db, backend="sqlite").tuples == expected
        assert sqlite_cache_info()["misses"] == before  # served from cache

    def test_set_bag_alternation_with_gc_keeps_queries_working(self):
        """The ISSUE's reproduction shape: alternate set/bag queries over
        one database's images, force collection, query again."""
        import gc

        from repro.relational import evaluate_query_bag

        clear_sqlite_cache()
        db = make_db()
        bag_db = BagDatabase.from_set_database(db)
        plan = Select(RelScan("R"), gt(col("a"), 0))
        expected_set = evaluate_query(plan, db, backend="sqlite").tuples
        expected_bag = dict(
            evaluate_query_bag(plan, bag_db, backend="sqlite").multiplicities
        )
        for _ in range(3):
            assert (
                evaluate_query(plan, db, backend="sqlite").tuples
                == expected_set
            )
            assert (
                dict(
                    evaluate_query_bag(
                        plan, bag_db, backend="sqlite"
                    ).multiplicities
                )
                == expected_bag
            )
            gc.collect()
        del bag_db
        gc.collect()
        assert evaluate_query(plan, db, backend="sqlite").tuples == expected_set

    def test_lru_bound_evicts_oldest_connection(self):
        from repro.relational.exec.sql_backend import set_sqlite_cache_limit

        clear_sqlite_cache()
        previous = set_sqlite_cache_limit(2)
        try:
            databases = [make_db() for _ in range(4)]
            for db in databases:
                evaluate_query(RelScan("R"), db, backend="sqlite")
            info = sqlite_cache_info()
            assert info["max_connections"] == 2
            assert info["connections"] == 2
            # The two most recent stay cached; the first was evicted.
            before = sqlite_cache_info()["hits"]
            evaluate_query(RelScan("R"), databases[-1], backend="sqlite")
            assert sqlite_cache_info()["hits"] == before + 1
            misses = sqlite_cache_info()["misses"]
            evaluate_query(RelScan("R"), databases[0], backend="sqlite")
            assert sqlite_cache_info()["misses"] == misses + 1
        finally:
            set_sqlite_cache_limit(previous)
            clear_sqlite_cache()

    def test_cache_limit_validates(self):
        from repro.relational.exec.sql_backend import set_sqlite_cache_limit

        with pytest.raises(ValueError):
            set_sqlite_cache_limit(0)

    def test_clear_concurrent_with_inflight_queries(self):
        """clear_sqlite_cache() may race in-flight queries: the entries
        are retired, not yanked — queries finish on the old connection."""
        import threading

        clear_sqlite_cache()
        db = make_db()
        plan = Select(RelScan("R"), gt(col("a"), 0))
        expected = evaluate_query(plan, db, backend="sqlite").tuples
        errors = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    assert (
                        evaluate_query(plan, db, backend="sqlite").tuples
                        == expected
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        worker = threading.Thread(target=hammer)
        worker.start()
        try:
            for _ in range(50):
                clear_sqlite_cache()
        finally:
            stop.set()
            worker.join()
        assert not errors

    def test_thread_pool_gets_one_connection_per_thread(self):
        from concurrent.futures import ThreadPoolExecutor

        clear_sqlite_cache()
        db = make_db()
        plan = Select(RelScan("R"), gt(col("a"), 0))
        expected = evaluate_query(plan, db, backend="sqlite").tuples

        def query(_):
            return evaluate_query(plan, db, backend="sqlite").tuples

        with ThreadPoolExecutor(max_workers=3) as pool:
            results = list(pool.map(query, range(30)))
        assert all(result == expected for result in results)
        info = sqlite_cache_info()
        # One entry per participating thread (including this one), each
        # loaded exactly once.
        assert 1 <= info["connections"] <= 4
        assert info["misses"] == info["connections"]


class TestErrorParity:
    def test_unknown_relation(self):
        db = make_db()
        with pytest.raises(SchemaError, match="no relation named"):
            evaluate_query(RelScan("missing"), db, backend="sqlite")

    def test_union_name_mismatch(self):
        db = Database(
            {
                "R": Relation.from_rows(Schema.of("a", "b"), [(1, 2)]),
                "S": Relation.from_rows(Schema.of("x", "y"), [(3, 4)]),
            }
        )
        for op_cls in (Union, Difference):
            with pytest.raises(SchemaError, match="attribute-name mismatch"):
                evaluate_query(op_cls(RelScan("R"), RelScan("S")), db,
                               backend="sqlite")

    def test_unbound_reference_message_matches_interpreter(self):
        db = make_db()
        plan = Select(RelScan("R"), eq(col("zz"), 1))
        with pytest.raises(EvaluationError, match="unbound reference 'zz'"):
            evaluate_query(plan, db, backend="sqlite")

    def test_cross_join_and_residual(self):
        db = make_db()
        plan = Join(
            RelScan("R"),
            Project(RelScan("S"), ((col("a"), "c"), (col("b"), "d"))),
            and_(eq(col("a"), col("c")), gt(col("b"), 5)),
        )
        assert (
            evaluate_query(plan, db, backend="sqlite").tuples
            == evaluate_query_interpreted(plan, db).tuples
        )


class TestSqlShape:
    def test_one_query_per_tree(self):
        """The middleware contract: one SQL string, parameterized."""
        db = make_db()
        schemas = {name: db.schema_of(name) for name in db.relations}
        plan = Union(
            Select(RelScan("R"), gt(col("a"), lit(0))),
            Project(RelScan("S"), ((col("a"), "a"), (lit(5), "b"))),
        )
        sql, params, schema = query_to_sqlite(plan, schemas)
        assert sql.count("?") == len(params) == 2
        assert params == [0, 5]
        assert schema.attributes == ("a", "b")
        assert "'" not in sql  # literals never interpolated

    def test_condition_rendering_is_two_valued(self):
        params = []
        sql = condition_to_sqlite(Not(eq(col("a"), lit(2))), params)
        assert sql == "(NOT COALESCE((\"a\" = ?), 0))"
        assert params == [2]
