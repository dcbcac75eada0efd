"""Engine edge cases: dataflow closure, insert-only modifications,
trimming interactions, optimizer interplay."""

import pytest

from repro import Database, History, Relation, Schema
from repro.core import (
    DatabaseDelta,
    HistoricalWhatIfQuery,
    Mahif,
    MahifConfig,
    Method,
    Replace,
)
from repro.core.plan import affected_relations
from repro.core.hwq import align
from repro.relational.algebra import Project, RelScan, Select
from repro.relational.expressions import and_, col, ge, le, lit
from repro.relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    UpdateStatement,
)

SCHEMA = Schema.of("k", "P", "F")
ROWS = [(i, i * 10, 5) for i in range(1, 11)]


def window(low, high):
    return and_(ge(col("P"), low), le(col("P"), high))


def db_with_two():
    return Database(
        {
            "R": Relation.from_rows(SCHEMA, ROWS),
            "S": Relation.from_rows(SCHEMA, [(100, 55, 1)]),
        }
    )


def assert_methods_agree(query):
    engine = Mahif()
    direct = DatabaseDelta.between(
        query.history.execute(query.database),
        query.aligned().modified.execute(query.database),
    )
    for method in Method:
        assert engine.answer(query, method).delta == direct, method.value
    return direct


class TestAffectedRelationClosure:
    def test_insert_query_propagates_affectedness(self):
        """A modification on R must mark S affected when an
        INSERT INTO S SELECT ... FROM R exists."""
        copy_into_s = InsertQuery(
            "S",
            Project(
                Select(RelScan("R"), ge(col("P"), 50)),
                ((col("k") + 100, "k"), (col("P"), "P"), (col("F"), "F")),
            ),
        )
        history = History.of(
            UpdateStatement("R", {"P": col("P") + 1}, window(40, 60)),
            copy_into_s,
        )
        aligned = align(
            history,
            [Replace(1, UpdateStatement("R", {"P": col("P") + 2},
                                        window(40, 60)))],
        )
        assert affected_relations(aligned) == {"R", "S"}

    def test_closure_is_transitive(self):
        hop1 = InsertQuery("S", RelScan("R"))
        hop2 = InsertQuery("T", RelScan("S"))
        history = History.of(
            UpdateStatement("R", {"P": col("P") + 1}, window(40, 60)),
            hop1,
            hop2,
        )
        aligned = align(
            history,
            [Replace(1, UpdateStatement("R", {"P": col("P") + 2},
                                        window(40, 60)))],
        )
        assert affected_relations(aligned) == {"R", "S", "T"}

    def test_cross_relation_delta_computed(self):
        """End-to-end: the delta on the downstream relation appears."""
        copy_into_s = InsertQuery(
            "S",
            Project(
                Select(RelScan("R"), ge(col("P"), 100)),
                ((col("k") + 100, "k"), (col("P"), "P"), (col("F"), "F")),
            ),
        )
        history = History.of(
            UpdateStatement("R", {"P": lit(150)}, window(90, 100)),
            copy_into_s,
        )
        query = HistoricalWhatIfQuery(
            history,
            db_with_two(),
            (Replace(1, UpdateStatement("R", {"P": lit(80)},
                                        window(90, 100))),),
        )
        direct = assert_methods_agree(query)
        assert "S" in direct.relations  # downstream relation differs


class TestInsertOnlyModifications:
    def test_insert_pair_modification_with_suffix(self):
        history = History.of(
            InsertTuple("R", (99, 55, 5)),
            UpdateStatement("R", {"F": col("F") + 1}, window(50, 60)),
            DeleteStatement("R", window(200, 300)),
        )
        query = HistoricalWhatIfQuery(
            History(history.statements),
            Database({"R": Relation.from_rows(SCHEMA, ROWS)}),
            (Replace(1, InsertTuple("R", (99, 25, 5))),),
        )
        assert_methods_agree(query)

    def test_colliding_insert_modification(self):
        """The hypothetical insert collides with an existing row."""
        history = History.of(InsertTuple("R", (999, 999, 999)))
        query = HistoricalWhatIfQuery(
            history,
            Database({"R": Relation.from_rows(SCHEMA, ROWS)}),
            (Replace(1, InsertTuple("R", (1, 10, 5))),),  # row exists!
        )
        assert_methods_agree(query)


class TestTrimInteraction:
    def test_late_modification_after_inserts_and_deletes(self):
        history = History.of(
            InsertTuple("R", (50, 45, 5)),
            DeleteStatement("R", window(95, 100)),
            UpdateStatement("R", {"F": lit(0)}, window(30, 60)),
            UpdateStatement("R", {"F": col("F") + 1}, window(20, 70)),
        )
        query = HistoricalWhatIfQuery(
            history,
            Database({"R": Relation.from_rows(SCHEMA, ROWS)}),
            (Replace(3, UpdateStatement("R", {"F": lit(9)},
                                        window(30, 60))),),
        )
        assert_methods_agree(query)

    def test_modification_at_last_position(self):
        history = History.of(
            UpdateStatement("R", {"F": col("F") + 1}, window(10, 100)),
            UpdateStatement("R", {"F": lit(0)}, window(40, 60)),
        )
        query = HistoricalWhatIfQuery(
            history,
            Database({"R": Relation.from_rows(SCHEMA, ROWS)}),
            (Replace(2, UpdateStatement("R", {"F": lit(1)},
                                        window(40, 80))),),
        )
        assert_methods_agree(query)


class TestOptimizerInterplay:
    @pytest.mark.parametrize("optimize_queries", [True, False])
    @pytest.mark.parametrize(
        "method", [Method.R, Method.R_DS, Method.R_PS_DS],
        ids=lambda m: m.value,
    )
    def test_same_delta_with_and_without_optimizer(
        self, optimize_queries, method
    ):
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, window(30, 60)),
            UpdateStatement("R", {"F": col("F") + 1}, window(40, 90)),
            DeleteStatement("R", window(95, 100)),
        )
        query = HistoricalWhatIfQuery(
            history,
            Database({"R": Relation.from_rows(SCHEMA, ROWS)}),
            (Replace(1, UpdateStatement("R", {"F": lit(2)},
                                        window(30, 70))),),
        )
        config = MahifConfig(optimize_queries=optimize_queries)
        result = Mahif(config).answer(query, method)
        direct = DatabaseDelta.between(
            history.execute(query.database),
            query.aligned().modified.execute(query.database),
        )
        assert result.delta == direct
