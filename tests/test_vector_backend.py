"""Unit tests for the columnar data layer and the columnar evaluator
(``evaluate`` of the default ``compiled`` backend and of ``vector``).

The four-way differential suite (``test_sql_backend_differential.py``)
is the correctness workhorse; this file pins the columnar
representation itself (type sniffing, NULL bitmaps, caching, the tuple
view), the exactness-preserving kernel fallbacks, statements, and two
properties of the default path:

* **pass-through identity** — a result cell of an attribute the plan
  only references is the stored relation's own object;
* **the column-wise sniffing pass equals the value-by-value one** it
  replaced (``reference_column`` below keeps the old loop), fuzzed with
  hypothesis under ``MAHIF_FUZZ_SEED`` / ``MAHIF_FUZZ_SCALE``.

Mutation checks, each made by hand on the final tree and reverted; each
must fail the named test: ``column_values`` ignoring the remembered
objects, and ``Column.take`` dropping them —
``test_unwritten_cells_are_the_stored_objects``; the column-wise pass
folding ``bool`` into ``int``, admitting a NaN column, or admitting
``2**63`` — ``test_column_wise_pass_equals_the_value_wise_reference``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from fuzz_differential import FUZZ_SEED, scaled

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
    INT64_SAFE_BOUND,
    ColumnarTable,
    column_from_values,
    column_values,
    columnar_cache_info,
    columnar_of_relation,
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
from repro.relational.exec.backend import resolve_backend
from repro.relational.statements import DeleteStatement, UpdateStatement

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


# ---------------------------------------------------------------------------
# pass-through identity on the default path
# ---------------------------------------------------------------------------

class TestPassThroughIdentity:
    def stored(self):
        # floats, big ints and built strings: nothing interned, so an
        # equal value that is not the stored object is a copy
        return Database({"R": Relation.from_rows(
            Schema.of("k", "a", "b", "c", "s", "t"),
            [
                (1000 + i, float(i) + 0.5, None if i % 7 == 0 else i / 3.0,
                 10 ** 12 + i, f"name-{i}", None if i % 5 == 0 else f"n{i}")
                for i in range(200)
            ],
        )})

    @pytest.mark.parametrize("backend", [None, "vector"])
    def test_unwritten_cells_are_the_stored_objects(self, backend):
        """``Π[If(θ, e, A), B, C…](σ(R))``, the shape of a reenactment
        query: every cell of an attribute the plan does not write is
        the object the stored relation holds, and a NULL stays
        ``None``."""
        db = self.stored()
        by_key = {row[0]: row for row in db["R"].tuples}
        written = If(gt(col("a"), 50.0), Arith("+", col("a"), lit(1.0)),
                     col("a"))
        plan = Project(
            Select(RelScan("R"), ge(col("k"), 1020)),
            ((col("k"), "k"), (written, "a"))
            + tuple((col(name), name) for name in "bcst"),
        )
        result = resolve_backend(backend).evaluate(plan, db)
        assert result == evaluate_query_interpreted(plan, db)
        assert len(result) == 180
        for row in result.tuples:
            source = by_key[row[0]]
            for index in (0, 2, 3, 4, 5):
                assert row[index] is source[index]

    def test_union_of_stored_columns_keeps_identity(self):
        db = self.stored()
        plan = Union(
            Select(RelScan("R"), lt(col("k"), 1050)),
            Select(RelScan("R"), IsNull(col("t"))),
        )
        result = resolve_backend(None).evaluate(plan, db)
        assert result == evaluate_query_interpreted(plan, db)
        cells = {id(cell) for row in db["R"].tuples for cell in row}
        assert all(id(cell) in cells for row in result.tuples for cell in row)


# ---------------------------------------------------------------------------
# the column-wise sniffing pass against the value-by-value one it replaced
# ---------------------------------------------------------------------------

def reference_tag(values):
    """The uniform scalar tag of a value sequence, or ``"object"``:
    the per-value loop ``column_from_values`` ran before it classified
    a column by the set of its value types."""
    tag = None
    for v in values:
        if v is None:
            continue
        if isinstance(v, bool):
            t = "bool"
        elif isinstance(v, int):
            t = "int"
        elif isinstance(v, float):
            if v != v:  # NaN: identity-bearing, never array-typed
                return "object"
            t = "float"
        elif isinstance(v, str):
            t = "str"
        else:
            return "object"
        if tag is None:
            tag = t
        elif tag != t:
            return "object"
    return tag if tag is not None else "object"


def reference_column(values):
    """``(tag, data, valid, int_bound)`` as the value-wise path built
    them: data and valid as lists, ``None`` for all-valid."""
    values = list(values)
    tag = reference_tag(values)
    bound = 0
    if tag == "int":
        bound = max(abs(v) for v in values if v is not None)
    if tag == "object" or bound >= INT64_SAFE_BOUND:
        return "object", values, None, 0
    fill = {"int": 0, "float": 0.0, "bool": False, "str": ""}[tag]
    valid = (
        [v is not None for v in values] if None in values else None
    )
    return tag, [fill if v is None else v for v in values], valid, bound


#: The values the exactness rules turn on, by type group.
EDGES = {
    "int": [0, 1, -1, 2 ** 53, -(2 ** 53), 2 ** 53 + 1, 2 ** 63 - 1,
            -(2 ** 63) + 1, 2 ** 63, -(2 ** 63), 2 ** 70],
    "float": [0.0, -0.0, 1.5, float(2 ** 53), float("inf"), float("nan")],
    "bool": [True, False],
    "str": ["", "a", "nan"],
}
COLUMNS = st.one_of(
    # one type group, with or without NULLs: the array-typed cases and
    # the edge that sends each of them to a list
    *[
        st.lists(st.one_of(st.none(), st.sampled_from(edges), wide))
        for edges, wide in (
            (EDGES["int"], st.integers(-1000, 1000)),
            (EDGES["float"], st.floats(allow_nan=False)),
            (EDGES["bool"], st.booleans()),
            (EDGES["str"], st.text(max_size=3)),
        )
    ],
    # and anything with anything
    st.lists(st.sampled_from([None, (1, 2), *sum(EDGES.values(), [])])),
)


@seed(FUZZ_SEED)
@settings(max_examples=scaled(400), deadline=None, database=None)
@given(COLUMNS)
def test_column_wise_pass_equals_the_value_wise_reference(values):
    column = column_from_values(values)
    tag, data, valid, bound = reference_column(values)
    assert column.tag == tag
    assert column.int_bound == bound
    assert column.is_array == (tag != "object")
    actual = column.data.tolist() if column.is_array else column.data
    assert len(actual) == len(data)
    for got, want in zip(actual, data):
        # exact: same type (True is not 1), same sign of zero, and in
        # an object column the same object (a NaN keeps its identity)
        if tag == "object":
            assert got is want
        else:
            assert type(got) is type(want) and repr(got) == repr(want)
    assert (
        column.valid is None if valid is None
        else column.valid.tolist() == valid
    )
    if column.is_array:
        assert column.data.dtype == {
            "int": np.int64, "float": np.float64, "bool": np.bool_,
            "str": object,
        }[tag]
        # what the column remembers is what it was given
        assert all(
            got is want for got, want in zip(column_values(column), values)
        )


# ---------------------------------------------------------------------------
# "object" columns on the default path: per-row fallbacks, first error
# ---------------------------------------------------------------------------

class TestObjectColumnsOnTheDefaultPath:
    def db(self):
        return Database(
            {
                "M": Relation.from_rows(
                    Schema.of("k", "v"),
                    # int / float / bool mixed, a NaN, an int past int64
                    [(1, 1), (2, 2.5), (3, True), (4, None),
                     (5, float("nan")), (6, 2 ** 63)],
                )
            }
        )

    def test_plans_over_an_object_column_equal_the_interpreter(self):
        db = self.db()
        assert columnar_of_relation(db["M"]).columns[1].tag == "object"
        plans = [
            Select(RelScan("M"), gt(col("v"), 1)),
            Project(
                RelScan("M"),
                ((col("k"), "k"), (Arith("*", col("v"), lit(2)), "w")),
            ),
            Project(
                Select(RelScan("M"), IsNull(col("v"))), ((col("v"), "v"),)
            ),
            Difference(RelScan("M"), Select(RelScan("M"), lt(col("v"), 2))),
            Join(
                RelScan("M"),
                Project(RelScan("M"), ((col("v"), "w"),)),
                eq(col("v"), col("w")),
            ),
        ]
        for plan in plans:
            expected = evaluate_query_interpreted(plan, db)
            actual = resolve_backend(None).evaluate(plan, db)
            # repr tells 1 from True and 1.0; NaN rows compare by repr
            assert sorted(map(repr, actual.tuples)) == sorted(
                map(repr, expected.tuples)
            )

    def test_first_error_is_the_interpreters(self):
        db = Database(
            {
                "E": Relation.from_rows(
                    Schema.of("k", "v"),
                    [(i, f"bad-{i}" if i % 3 == 0 else i) for i in range(30)],
                )
            }
        )
        # ten rows raise, each with its own message: the first one hit
        # in row order is the one reported
        plan = Select(RelScan("E"), gt(col("v"), 0))
        with pytest.raises(EvaluationError) as interpreted:
            evaluate_query_interpreted(plan, db)
        with pytest.raises(EvaluationError) as default:
            resolve_backend(None).evaluate(plan, db)
        assert "bad-" in str(interpreted.value)
        assert str(default.value) == str(interpreted.value)
