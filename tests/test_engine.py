"""Integration tests for the Mahif engine (Algorithm 2).

The load-bearing assertion throughout: *every method returns exactly the
same delta* — Theorems 2, 4 and 5 as executable facts — across history
shapes, modification types, datasets and multi-relation databases.
"""

import pytest

from repro import Database, History, Relation, Schema
from repro.core import (
    DeleteStatementMod,
    HistoricalWhatIfQuery,
    InsertStatementMod,
    Mahif,
    MahifConfig,
    Method,
    Replace,
    answer,
)
from repro.relational.expressions import and_, col, eq, ge, le, lit
from repro.relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    UpdateStatement,
)
from repro.relational.algebra import Project, RelScan, Select

SCHEMA = Schema.of("k", "P", "F")
ROWS = [(i, i * 10, 5) for i in range(1, 13)]

ALL_METHODS = list(Method)


def window(low, high):
    return and_(ge(col("P"), low), le(col("P"), high))


def db_with(rows=ROWS):
    return Database({"R": Relation.from_rows(SCHEMA, rows)})


def assert_all_methods_agree(query, expect_nonempty=True):
    engine = Mahif()
    results = {m: engine.answer(query, m) for m in ALL_METHODS}
    reference = results[Method.NAIVE].delta
    for method, result in results.items():
        assert result.delta == reference, method.value
    if expect_nonempty:
        assert not reference.is_empty()
    return results


class TestMethodAgreement:
    def test_update_replacement(self):
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, window(20, 60)),
            UpdateStatement("R", {"F": col("F") + 1}, window(40, 90)),
            UpdateStatement("R", {"F": col("F") * 2}, window(100, 120)),
        )
        query = HistoricalWhatIfQuery(
            history,
            db_with(),
            (Replace(1, UpdateStatement("R", {"F": lit(0)}, window(20, 80))),),
        )
        results = assert_all_methods_agree(query)
        # the independent third update must be sliced away
        kept = results[Method.R_PS_DS].slice_result.kept_positions
        assert 3 not in kept

    def test_delete_replacement(self):
        history = History.of(
            DeleteStatement("R", window(100, 120)),
            UpdateStatement("R", {"F": col("F") + 1}, window(90, 130)),
        )
        query = HistoricalWhatIfQuery(
            history,
            db_with(),
            (Replace(1, DeleteStatement("R", window(80, 120))),),
        )
        assert_all_methods_agree(query)

    def test_statement_deletion_modification(self):
        history = History.of(
            UpdateStatement("R", {"F": lit(9)}, window(20, 60)),
            UpdateStatement("R", {"F": col("F") + 1}, window(40, 90)),
        )
        query = HistoricalWhatIfQuery(
            history, db_with(), (DeleteStatementMod(1),)
        )
        assert_all_methods_agree(query)

    def test_statement_insertion_modification(self):
        history = History.of(
            UpdateStatement("R", {"F": lit(9)}, window(20, 60)),
        )
        query = HistoricalWhatIfQuery(
            history,
            db_with(),
            # window reaches past u1's (20,60), so the inserted update's
            # effect on P in (60,90] is not masked and the delta is nonempty
            (InsertStatementMod(
                1, UpdateStatement("R", {"F": lit(0)}, window(50, 90))
            ),),
        )
        assert_all_methods_agree(query)

    def test_insert_tuple_modification(self):
        history = History.of(
            InsertTuple("R", (99, 55, 5)),
            UpdateStatement("R", {"F": col("F") + 1}, window(50, 60)),
        )
        query = HistoricalWhatIfQuery(
            history, db_with(), (Replace(1, InsertTuple("R", (99, 55, 9))),)
        )
        assert_all_methods_agree(query)

    def test_mixed_history_with_late_modification(self):
        history = History.of(
            UpdateStatement("R", {"F": col("F") + 1}, window(10, 40)),
            InsertTuple("R", (50, 45, 5)),
            DeleteStatement("R", window(110, 120)),
            UpdateStatement("R", {"F": lit(0)}, window(30, 60)),
        )
        query = HistoricalWhatIfQuery(
            history,
            db_with(),
            (Replace(4, UpdateStatement("R", {"F": lit(2)}, window(30, 70))),),
        )
        assert_all_methods_agree(query)

    def test_multiple_modifications(self):
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, window(10, 30)),
            UpdateStatement("R", {"F": col("F") + 1}, window(50, 70)),
            UpdateStatement("R", {"F": col("F") + 2}, window(90, 120)),
        )
        query = HistoricalWhatIfQuery(
            history,
            db_with(),
            (
                Replace(1, UpdateStatement("R", {"F": lit(1)}, window(10, 30))),
                Replace(3, UpdateStatement("R", {"F": col("F") + 2},
                                           window(80, 120))),
            ),
        )
        assert_all_methods_agree(query)

    def test_multi_relation_database(self):
        other = Schema.of("x", "y")
        db = Database(
            {
                "R": Relation.from_rows(SCHEMA, ROWS),
                "S": Relation.from_rows(other, [(1, 1), (2, 2)]),
            }
        )
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, window(20, 60)),
            UpdateStatement("S", {"y": col("y") + 1}, ge(col("x"), 0)),
        )
        query = HistoricalWhatIfQuery(
            history,
            db,
            (Replace(1, UpdateStatement("R", {"F": lit(3)}, window(20, 60))),),
        )
        results = assert_all_methods_agree(query)
        # S is untouched by the modification: no delta entry
        assert "S" not in results[Method.NAIVE].delta.relations

    def test_insert_query_history_falls_back_gracefully(self):
        """INSERT..SELECT disables program slicing but all methods still
        agree (R_PS silently behaves like R)."""
        iq = InsertQuery(
            "R",
            Project(
                Select(RelScan("R"), ge(col("P"), 110)),
                ((col("k") + 100, "k"), (col("P"), "P"), (col("F"), "F")),
            ),
        )
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, window(20, 60)),
            iq,
        )
        query = HistoricalWhatIfQuery(
            history,
            db_with(),
            (Replace(1, UpdateStatement("R", {"F": lit(1)}, window(20, 60))),),
        )
        assert_all_methods_agree(query)

    def test_empty_delta_workload(self):
        """A modification that provably changes nothing."""
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, window(200, 300)),
        )
        query = HistoricalWhatIfQuery(
            history,
            db_with(),
            (Replace(1, UpdateStatement("R", {"F": lit(0)},
                                        window(200, 400))),),
        )
        assert_all_methods_agree(query, expect_nonempty=False)


class TestEngineAccounting:
    def make_query(self):
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, window(20, 60)),
            UpdateStatement("R", {"F": col("F") + 1}, window(100, 120)),
        )
        return HistoricalWhatIfQuery(
            history,
            db_with(),
            (Replace(1, UpdateStatement("R", {"F": lit(1)}, window(20, 60))),),
        )

    def test_ps_timing_reported(self):
        result = Mahif().answer(self.make_query(), Method.R_PS_DS)
        assert result.ps_seconds > 0
        assert result.exe_seconds > 0
        assert result.time_travel_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.time_travel_seconds
            + result.ps_seconds
            + result.exe_seconds
        )

    def test_r_method_has_no_ps_cost(self):
        result = Mahif().answer(self.make_query(), Method.R)
        assert result.ps_seconds == 0
        assert result.slice_result is None
        assert result.data_slicing is None

    def test_ds_conditions_exposed(self):
        result = Mahif().answer(self.make_query(), Method.R_DS)
        assert result.data_slicing is not None
        assert "R" in result.data_slicing.for_original

    def test_naive_breakdown_exposed(self):
        result = Mahif().answer(self.make_query(), Method.NAIVE)
        assert result.naive_breakdown is not None

    def test_queries_exposed_for_inspection(self):
        result = Mahif().answer(self.make_query(), Method.R)
        assert "R" in result.queries_original
        from repro.relational.sqlgen import query_to_sql

        assert "SELECT" in query_to_sql(result.queries_original["R"])

    def test_greedy_config(self):
        config = MahifConfig(slicing_algorithm="greedy")
        result = Mahif(config).answer(self.make_query(), Method.R_PS_DS)
        assert 2 not in result.slice_result.kept_positions

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MahifConfig(slicing_algorithm="magic")

    def test_module_level_answer(self):
        result = answer(self.make_query(), Method.R)
        assert not result.delta.is_empty()


class TestMethodEnum:
    def test_labels_match_paper(self):
        assert Method.NAIVE.value == "N"
        assert Method.R_PS_DS.value == "R+PS+DS"

    def test_capability_flags(self):
        assert Method.R_PS.uses_program_slicing
        assert not Method.R_PS.uses_data_slicing
        assert Method.R_DS.uses_data_slicing
        assert Method.R_PS_DS.uses_program_slicing
        assert Method.R_PS_DS.uses_data_slicing
        assert not Method.NAIVE.uses_program_slicing
