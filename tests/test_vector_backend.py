"""Unit tests for the columnar data layer and the ``vector`` backend.

The four-way differential suite (``test_sql_backend_differential.py``)
is the correctness workhorse; this file pins the columnar
representation itself (type sniffing, NULL bitmaps, caching, the tuple
view), the exactness-preserving kernel fallbacks, statements, and the
pure-Python mode that runs when NumPy is unavailable or disabled via
``MAHIF_VECTOR_NUMPY=0``.
"""

import math

import pytest

from repro.relational import (
    BagDatabase,
    BagRelation,
    Database,
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
from repro.relational.columnar import (
    ColumnarTable,
    bulk_shard_indices,
    column_from_values,
    column_values,
    columnar_cache_info,
    columnar_of_relation,
    numpy_active,
    ordered_indices_by_column,
    set_numpy_enabled,
)
from repro.relational.expressions import (
    Arith,
    Attr,
    Const,
    EvaluationError,
    If,
    IsNull,
    Var,
    and_,
    col,
    eq,
    ge,
    gt,
    lit,
    lt,
)
from repro.relational.partition import stable_shard_of
from repro.relational.statements import DeleteStatement, UpdateStatement

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the CI image bundles numpy
    HAVE_NUMPY = False


@pytest.fixture
def no_numpy():
    """Force the pure-Python column fallback for one test."""
    previous = set_numpy_enabled(False)
    try:
        yield
    finally:
        set_numpy_enabled(previous)


def _db():
    return Database(
        {
            "R": Relation.from_rows(
                Schema.of("a", "b"),
                [(1, 10), (2, None), (3, 30), (None, 40)],
            ),
            "T": Relation.from_rows(
                Schema.of("e", "f"), [(1, "x"), (3, "y"), (5, "z")]
            ),
        }
    )


# ---------------------------------------------------------------------------
# columns: sniffing, NULL bitmaps, the tuple view
# ---------------------------------------------------------------------------

class TestColumn:
    def test_int_column_round_trips(self):
        values = [1, -2, 3]
        assert column_values(column_from_values(values)) == values

    def test_null_round_trips(self):
        values = [1, None, 3]
        assert column_values(column_from_values(values)) == values

    def test_bool_not_collapsed_to_int(self):
        values = [True, False, True]
        back = column_values(column_from_values(values))
        assert back == values
        assert all(type(v) is bool for v in back)

    def test_mixed_int_float_stays_object(self):
        # Promoting 1 to 1.0 would change downstream type checks.
        values = [1, 2.5, 3]
        colx = column_from_values(values)
        assert colx.tag == "object"
        back = column_values(colx)
        assert [type(v) for v in back] == [int, float, int]

    def test_nan_forces_object_column(self):
        # hash(nan) is identity-based: the same object must come back.
        nan = float("nan")
        colx = column_from_values([nan, 1.0])
        assert colx.tag == "object"
        assert column_values(colx)[0] is nan

    def test_huge_int_stays_exact(self):
        values = [2**70, -(2**70), 0]
        assert column_values(column_from_values(values)) == values

    def test_string_column_with_nulls(self):
        values = ["a", None, ""]
        assert column_values(column_from_values(values)) == values

    def test_tuple_view_round_trips(self):
        relation = _db()["R"]
        table = ColumnarTable.from_relation(relation)
        assert frozenset(table.tuples()) == relation.tuples
        assert table.to_relation() == relation

    def test_bag_multiplicities_round_trip(self):
        bag = BagRelation(Schema.of("x"), {(1,): 3, (2,): 1})
        table = ColumnarTable.from_bag(bag)
        assert table.to_bag() == bag


class TestColumnarCache:
    def test_cache_hits_by_identity(self):
        relation = _db()["R"]
        first = columnar_of_relation(relation)
        assert columnar_of_relation(relation) is first
        info = columnar_cache_info()
        assert info["relations"] >= 1


# ---------------------------------------------------------------------------
# bulk partition kernels
# ---------------------------------------------------------------------------

class TestPartitionKernels:
    def test_bulk_shard_indices_matches_per_row(self):
        rows = [(i, f"s{i}", i * 0.5, None) for i in range(50)]
        for shards in (1, 2, 7):
            assert bulk_shard_indices(rows, shards) == [
                stable_shard_of(row, shards) for row in rows
            ]

    def test_ordered_indices_match_python_sort(self):
        rows = [(5,), (1,), (3,), (1,), (2,)]
        indices = ordered_indices_by_column(rows, 0)
        if indices is not None:  # numpy path
            assert [rows[i] for i in indices] == sorted(rows)

    def test_ordered_indices_refuse_mixed_columns(self):
        assert ordered_indices_by_column([(1,), (True,)], 0) is None
        assert ordered_indices_by_column([(1,), (None,)], 0) is None
        assert ordered_indices_by_column([(float("nan"),), (1.0,)], 0) is None


# ---------------------------------------------------------------------------
# operator kernels against the interpreter
# ---------------------------------------------------------------------------

class TestVectorOperators:
    def check(self, plan, db=None):
        db = db or _db()
        expected = evaluate_query_interpreted(plan, db)
        actual = evaluate_query(plan, db, backend="vector")
        assert actual == expected
        return actual

    def test_select_bitmap(self):
        self.check(Select(RelScan("R"), gt(col("a"), 1)))

    def test_select_null_comparison_is_false(self):
        result = self.check(Select(RelScan("R"), ge(col("b"), 0)))
        assert (2, None) not in result.tuples  # NULL >= 0 is not true

    def test_project_arith_with_nulls(self):
        self.check(
            Project(RelScan("R"), ((Arith("+", col("a"), col("b")), "s"),))
        )

    def test_project_division_by_zero_is_null(self):
        db = Database(
            {"R": Relation.from_rows(Schema.of("a", "b"), [(4, 0), (9, 3)])}
        )
        result = self.check(
            Project(RelScan("R"), ((Arith("/", col("a"), col("b")), "q"),)),
            db,
        )
        assert (None,) in result.tuples

    def test_union_difference(self):
        self.check(Union(RelScan("R"), RelScan("R")))
        self.check(
            Difference(RelScan("R"), Select(RelScan("R"), gt(col("a"), 1)))
        )

    def test_equi_join(self):
        self.check(
            Join(RelScan("R"), RelScan("T"), eq(col("a"), col("e")))
        )

    def test_join_with_residual(self):
        self.check(
            Join(
                RelScan("R"),
                RelScan("T"),
                and_(eq(col("a"), col("e")), gt(col("b"), 10)),
            )
        )

    def test_nested_loop_join(self):
        self.check(
            Join(RelScan("R"), RelScan("T"), lt(col("a"), col("e")))
        )

    def test_string_join_keys(self):
        db = Database(
            {
                "L": Relation.from_rows(
                    Schema.of("s"), [("a",), ("b",), (None,)]
                ),
                "M": Relation.from_rows(
                    Schema.of("t", "v"), [("a", 1), ("c", 2)]
                ),
            }
        )
        self.check(Join(RelScan("L"), RelScan("M"), eq(col("s"), col("t"))), db)

    def test_cross_type_equality_is_false(self):
        db = Database(
            {
                "L": Relation.from_rows(Schema.of("s"), [("1",), ("x",)]),
                "M": Relation.from_rows(Schema.of("t"), [(1,), (2,)]),
            }
        )
        self.check(Join(RelScan("L"), RelScan("M"), eq(col("s"), col("t"))), db)

    def test_unbound_attr_raises_like_interpreter(self):
        plan = Select(RelScan("R"), gt(col("missing"), 0))
        with pytest.raises(EvaluationError):
            evaluate_query_interpreted(plan, _db())
        with pytest.raises(EvaluationError):
            evaluate_query(plan, _db(), backend="vector")

    def test_if_and_isnull(self):
        self.check(
            Project(
                RelScan("R"),
                ((If(IsNull(col("b")), lit(0), col("b")), "b0"),),
            )
        )

    def test_singleton_and_empty_inputs(self):
        self.check(Union(Select(RelScan("R"), lit(False)), RelScan("R")))
        self.check(
            Union(
                RelScan("R"),
                Singleton(Schema.of("a", "b"), (99, 99)),
            )
        )

    def test_minus_zero_and_exact_floats(self):
        db = Database(
            {
                "F": Relation.from_rows(
                    Schema.of("x"), [(-0.0,), (0.5,), (2.0**53,)]
                ),
                "G": Relation.from_rows(Schema.of("y"), [(0.0,), (0.5,)]),
            }
        )
        plan = Join(RelScan("F"), RelScan("G"), eq(col("x"), col("y")))
        expected = evaluate_query_interpreted(plan, db)
        actual = evaluate_query(plan, db, backend="vector")
        assert actual == expected

    def test_bag_semantics_aggregate(self):
        bag_db = BagDatabase.from_set_database(_db())
        plan = Project(RelScan("R"), ((Const(1), "one"),))
        expected = evaluate_query_bag_interpreted(plan, bag_db)
        actual = evaluate_query_bag(plan, bag_db, backend="vector")
        assert actual == expected
        assert actual.multiplicities[(1,)] == 4

    def test_bag_monus(self):
        bag_db = BagDatabase.from_set_database(_db())
        plan = Difference(
            Union(RelScan("R"), RelScan("R")), RelScan("R")
        )
        expected = evaluate_query_bag_interpreted(plan, bag_db)
        actual = evaluate_query_bag(plan, bag_db, backend="vector")
        assert actual == expected


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

class TestVectorStatements:
    def test_update_matches_compiled(self):
        db = _db()
        stmt = UpdateStatement(
            "R", {"b": Arith("+", col("b"), lit(1))}, gt(col("a"), 1)
        )
        expected = stmt.apply(db, backend="compiled")
        actual = stmt.apply(db, backend="vector")
        assert actual["R"] == expected["R"]

    def test_delete_matches_compiled(self):
        db = _db()
        stmt = DeleteStatement("R", ge(col("b"), 30))
        expected = stmt.apply(db, backend="compiled")
        actual = stmt.apply(db, backend="vector")
        assert actual["R"] == expected["R"]

    def test_update_error_propagates(self):
        db = _db()
        stmt = UpdateStatement("R", {"b": Var("free")}, gt(col("a"), 0))
        with pytest.raises(EvaluationError):
            stmt.apply(db, backend="vector")


# ---------------------------------------------------------------------------
# pure-Python mode (NumPy gated off)
# ---------------------------------------------------------------------------

class TestPurePythonMode:
    def test_columns_fall_back_to_lists(self, no_numpy):
        assert not numpy_active()
        colx = column_from_values([1, 2, 3])
        assert not colx.is_array

    def test_plans_still_match_interpreter(self, no_numpy):
        db = _db()
        plans = [
            Select(RelScan("R"), gt(col("a"), 1)),
            Join(RelScan("R"), RelScan("T"), eq(col("a"), col("e"))),
            Union(RelScan("R"), RelScan("R")),
            Difference(RelScan("R"), Select(RelScan("R"), gt(col("a"), 1))),
        ]
        for plan in plans:
            assert evaluate_query(plan, db, backend="vector") == (
                evaluate_query_interpreted(plan, db)
            )

    def test_bag_still_matches_interpreter(self, no_numpy):
        bag_db = BagDatabase.from_set_database(_db())
        plan = Union(RelScan("R"), RelScan("R"))
        assert evaluate_query_bag(plan, bag_db, backend="vector") == (
            evaluate_query_bag_interpreted(plan, bag_db)
        )

    def test_ordered_indices_disabled(self, no_numpy):
        assert ordered_indices_by_column([(1,), (2,)], 0) is None


# ---------------------------------------------------------------------------
# NaN identity through the vector pipeline
# ---------------------------------------------------------------------------

class TestNanIdentity:
    def test_nan_rows_survive_select_and_union(self):
        nan = float("nan")
        db = Database(
            {
                "N": Relation.from_rows(
                    Schema.of("x", "k"), [(nan, 1), (2.0, 2)]
                )
            }
        )
        plan = Union(
            Select(RelScan("N"), gt(col("k"), 0)), RelScan("N")
        )
        result = evaluate_query(plan, db, backend="vector")
        expected = evaluate_query_interpreted(plan, db)
        assert sorted(map(repr, result.tuples)) == sorted(
            map(repr, expected.tuples)
        )
        assert any(math.isnan(row[0]) for row in result.tuples)
