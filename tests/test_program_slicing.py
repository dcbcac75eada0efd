"""Program slicing tests (Sections 7-8, Theorem 4)."""

import pytest

from repro import Database, History, Relation, Schema
from repro.core.hwq import Replace, align
from repro.core.program_slicing import (
    greedy_slice,
    histories_equal_condition,
    is_slice,
)
from repro.relational.expressions import (
    and_,
    col,
    eq,
    ge,
    le,
    lit,
)
from repro.relational.statements import (
    DeleteStatement,
    UpdateStatement,
)
from repro.symbolic.symexec import run_history_single_tuple
from repro.symbolic.vctable import SymbolicTuple

SCHEMA = Schema.of("k", "P", "F")


def db_with(rows):
    return Database({"R": Relation.from_rows(SCHEMA, rows)})


def schemas():
    return {"R": SCHEMA}


ROWS = [(i, i * 10, 5) for i in range(1, 11)]  # P in 10..100, F = 5


def verify_slice_correct(db, aligned, kept_positions):
    """The ground-truth slice property (Definition 4): the delta computed
    from the sliced histories equals the full delta."""
    full_h = aligned.original.execute(db)
    full_m = aligned.modified.execute(db)
    sliced = aligned.subset(kept_positions)
    sliced_h = sliced.original.execute(db)
    sliced_m = sliced.modified.execute(db)
    full_delta = set(full_h["R"].symmetric_difference(full_m["R"]))
    sliced_delta = set(sliced_h["R"].symmetric_difference(sliced_m["R"]))
    assert full_delta == sliced_delta


class TestHistoriesEqualCondition:
    def test_identical_runs_yield_true(self):
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50))
        )
        shared = SymbolicTuple.fresh(SCHEMA, "in")
        run_a = run_history_single_tuple(history, "R", SCHEMA, shared, "a")
        condition = histories_equal_condition(run_a, run_a)
        from repro.relational.expressions import TRUE

        assert condition == TRUE


class TestGreedySlice:
    def test_independent_updates_excluded(self):
        """Updates whose windows cannot overlap the modification are
        dropped."""
        u_mod = UpdateStatement("R", {"F": lit(0)},
                                and_(ge(col("P"), 10), le(col("P"), 30)))
        u_mod2 = UpdateStatement("R", {"F": lit(0)},
                                 and_(ge(col("P"), 10), le(col("P"), 40)))
        u_far = UpdateStatement("R", {"F": col("F") + 1},
                                and_(ge(col("P"), 80), le(col("P"), 100)))
        u_near = UpdateStatement("R", {"F": col("F") + 1},
                                 and_(ge(col("P"), 20), le(col("P"), 50)))
        aligned = align(
            History.of(u_mod, u_far, u_near), [Replace(1, u_mod2)]
        )
        db = db_with(ROWS)
        result = greedy_slice(aligned, db, schemas())
        assert 1 in result.kept_positions      # the modification itself
        assert 3 in result.kept_positions      # overlapping: dependent
        assert 2 not in result.kept_positions  # disjoint: independent
        verify_slice_correct(db, aligned, result.kept_positions)

    def test_all_dependent_keeps_everything(self):
        u_mod = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50))
        u_mod2 = UpdateStatement("R", {"F": lit(7)}, ge(col("P"), 50))
        u_dep = UpdateStatement("R", {"F": col("F") + 1}, ge(col("F"), 0))
        aligned = align(History.of(u_mod, u_dep), [Replace(1, u_mod2)])
        db = db_with(ROWS)
        result = greedy_slice(aligned, db, schemas())
        assert result.kept_positions == (1, 2)

    def test_deletes_participate(self):
        d_mod = DeleteStatement("R", ge(col("P"), 90))
        d_mod2 = DeleteStatement("R", ge(col("P"), 70))
        u_far = UpdateStatement(
            "R", {"F": col("F") + 1}, le(col("P"), 30)
        )
        aligned = align(History.of(d_mod, u_far), [Replace(1, d_mod2)])
        db = db_with(ROWS)
        result = greedy_slice(aligned, db, schemas())
        assert 2 not in result.kept_positions
        verify_slice_correct(db, aligned, result.kept_positions)

    def test_statements_on_unmodified_relations_excluded(self):
        other_schema = Schema.of("x")
        db = Database(
            {
                "R": Relation.from_rows(SCHEMA, ROWS),
                "S": Relation.from_rows(other_schema, [(1,)]),
            }
        )
        u_mod = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50))
        u_mod2 = UpdateStatement("R", {"F": lit(1)}, ge(col("P"), 50))
        u_other = UpdateStatement("S", {"x": col("x") + 1}, ge(col("x"), 0))
        aligned = align(History.of(u_mod, u_other), [Replace(1, u_mod2)])
        result = greedy_slice(
            aligned, db, {"R": SCHEMA, "S": other_schema}
        )
        assert 2 not in result.kept_positions

    def test_solver_accounting(self):
        u_mod = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50))
        u_mod2 = UpdateStatement("R", {"F": lit(1)}, ge(col("P"), 50))
        u_other = UpdateStatement("R", {"F": col("F") + 1}, le(col("P"), 20))
        aligned = align(History.of(u_mod, u_other), [Replace(1, u_mod2)])
        result = greedy_slice(aligned, db_with(ROWS), schemas())
        assert result.solver_calls >= 1
        assert result.solver_seconds >= 0.0
        assert result.excluded_count == result.total_positions - len(
            result.kept_positions
        )

    def test_compression_tightens_slices(self):
        """With Φ_D bounding F = 5, an update conditioned on F >= 100 is
        provably independent; without data knowledge it must be kept."""
        u_mod = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50))
        u_mod2 = UpdateStatement("R", {"F": lit(1)}, ge(col("P"), 50))
        # F starts at 5 and u_mod writes 0/1, so F >= 100 is impossible —
        # but only the compressed database can prove it.
        u_impossible = UpdateStatement(
            "R", {"F": col("F") - 1}, ge(col("F"), 100)
        )
        aligned = align(
            History.of(u_mod, u_impossible), [Replace(1, u_mod2)]
        )
        db = db_with(ROWS)
        result = greedy_slice(aligned, db, schemas())
        assert 2 not in result.kept_positions
        verify_slice_correct(db, aligned, result.kept_positions)


class TestIsSlice:
    def test_full_index_set_is_always_a_slice(self):
        u_mod = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50))
        u_mod2 = UpdateStatement("R", {"F": lit(1)}, ge(col("P"), 50))
        u_dep = UpdateStatement("R", {"F": col("F") + 1}, ge(col("F"), 0))
        aligned = align(History.of(u_mod, u_dep), [Replace(1, u_mod2)])
        assert is_slice(aligned, db_with(ROWS), schemas(), {1, 2})

    def test_dropping_dependent_statement_rejected(self):
        u_mod = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50))
        u_mod2 = UpdateStatement("R", {"F": lit(7)}, ge(col("P"), 50))
        u_dep = UpdateStatement("R", {"F": col("F") + 1}, ge(col("F"), 0))
        aligned = align(History.of(u_mod, u_dep), [Replace(1, u_mod2)])
        assert not is_slice(aligned, db_with(ROWS), schemas(), {1})

    def test_example8_candidate_rejected(self):
        """Example 8: dropping u2 from (u1, u2) with M = (u1 <- u1') is
        not a valid slice — u2 adds +5 for some affected tuples."""
        u1 = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50))
        u1p = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 60))
        u2 = UpdateStatement(
            "R", {"F": col("F") + 5},
            and_(eq(col("k"), 1), le(col("P"), 100)),
        )
        # give tuple k=1 a price in the modification window so u2 matters
        rows = [(1, 55, 5), (2, 10, 5), (3, 95, 5)]
        aligned = align(History.of(u1, u2), [Replace(1, u1p)])
        assert not is_slice(aligned, db_with(rows), schemas(), {1})
