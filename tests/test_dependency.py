"""Dependency-based slicing tests (Section 9, Theorem 5)."""

import pytest

from repro import Database, History, Relation, Schema
from repro.core import HistoricalWhatIfQuery, Mahif, MahifConfig, Method
from repro.core.dependency import dependency_slice
from repro.core.hwq import Replace, align
from repro.core.program_slicing import greedy_slice
from repro.relational.expressions import and_, col, ge, le, lit
from repro.relational.parser import parse_history, parse_statement
from repro.relational.statements import DeleteStatement, UpdateStatement

SCHEMA = Schema.of("k", "P", "F")
ROWS = [(i, i * 10, 5) for i in range(1, 11)]


def db_with(rows=ROWS):
    return Database({"R": Relation.from_rows(SCHEMA, rows)})


def schemas():
    return {"R": SCHEMA}


def window(low, high):
    return and_(ge(col("P"), low), le(col("P"), high))


def verify_slice(db, aligned, kept):
    full = set(
        aligned.original.execute(db)["R"].symmetric_difference(
            aligned.modified.execute(db)["R"]
        )
    )
    sliced_pair = aligned.subset(kept)
    sliced = set(
        sliced_pair.original.execute(db)["R"].symmetric_difference(
            sliced_pair.modified.execute(db)["R"]
        )
    )
    assert full == sliced


class TestDependencySlice:
    def test_example9_overlapping_updates_are_dependent(self):
        """Example 9's shape: u2's window overlaps u1's affected tuples."""
        u1 = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 40))
        u1p = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 60))
        u2 = UpdateStatement("R", {"F": col("F") + 5}, le(col("P"), 100))
        aligned = align(History.of(u1, u2), [Replace(1, u1p)])
        result = dependency_slice(aligned, db_with(), schemas())
        assert result.kept_positions == (1, 2)

    def test_disjoint_windows_independent(self):
        u1 = UpdateStatement("R", {"F": lit(0)}, window(10, 30))
        u1p = UpdateStatement("R", {"F": lit(0)}, window(10, 40))
        u_far = UpdateStatement("R", {"F": col("F") + 1}, window(80, 100))
        aligned = align(History.of(u1, u_far), [Replace(1, u1p)])
        db = db_with()
        result = dependency_slice(aligned, db, schemas())
        assert result.kept_positions == (1,)
        verify_slice(db, aligned, result.kept_positions)

    def test_transitive_dependence_through_attribute_chain(self):
        """u3 depends on the modification *through* u2: the modification
        touches P<=30 tuples, u2 rewrites their F, u3 conditions on F."""
        u1 = UpdateStatement("R", {"F": lit(50)}, window(10, 30))
        u1p = UpdateStatement("R", {"F": lit(50)}, window(10, 20))
        u2 = UpdateStatement("R", {"F": col("F") * 2}, ge(col("F"), 50))
        u3 = UpdateStatement("R", {"k": col("k") + 100}, ge(col("F"), 100))
        aligned = align(History.of(u1, u2, u3), [Replace(1, u1p)])
        db = db_with()
        result = dependency_slice(aligned, db, schemas())
        # u2 overlaps (F=50 reachable for modified tuples), u3 sees F=100
        assert 2 in result.kept_positions
        assert 3 in result.kept_positions
        verify_slice(db, aligned, result.kept_positions)

    def test_compression_proves_independence(self):
        """F is 5 everywhere, so an update on F >= 1000 is impossible —
        provable only through Φ_D."""
        u1 = UpdateStatement("R", {"F": lit(0)}, window(10, 30))
        u1p = UpdateStatement("R", {"F": lit(0)}, window(10, 40))
        u_impossible = UpdateStatement(
            "R", {"k": lit(0)}, ge(col("F"), 1000)
        )
        aligned = align(History.of(u1, u_impossible), [Replace(1, u1p)])
        db = db_with()
        result = dependency_slice(aligned, db, schemas())
        assert 2 not in result.kept_positions
        verify_slice(db, aligned, result.kept_positions)

    def test_deletes_supported(self):
        d = DeleteStatement("R", window(10, 30))
        dp = DeleteStatement("R", window(10, 40))
        u_far = UpdateStatement("R", {"F": col("F") + 1}, window(80, 100))
        u_near = UpdateStatement("R", {"F": col("F") + 1}, window(20, 50))
        aligned = align(History.of(d, u_far, u_near), [Replace(1, dp)])
        db = db_with()
        result = dependency_slice(aligned, db, schemas())
        assert 2 not in result.kept_positions
        assert 3 in result.kept_positions
        verify_slice(db, aligned, result.kept_positions)

    def test_multiple_modifications(self):
        u1 = UpdateStatement("R", {"F": lit(0)}, window(10, 30))
        u1p = UpdateStatement("R", {"F": lit(0)}, window(10, 40))
        u2 = UpdateStatement("R", {"F": col("F") + 1}, window(50, 70))
        u2p = UpdateStatement("R", {"F": col("F") + 1}, window(50, 60))
        u_far = UpdateStatement("R", {"F": col("F") + 2}, window(90, 100))
        u_mid = UpdateStatement("R", {"F": col("F") + 3}, window(35, 55))
        aligned = align(
            History.of(u1, u2, u_far, u_mid),
            [Replace(1, u1p), Replace(2, u2p)],
        )
        db = db_with()
        result = dependency_slice(aligned, db, schemas())
        assert 1 in result.kept_positions and 2 in result.kept_positions
        assert 3 not in result.kept_positions  # disjoint from both mods
        assert 4 in result.kept_positions      # overlaps the second mod
        verify_slice(db, aligned, result.kept_positions)

    def test_consistent_with_greedy(self):
        """Both slicers must produce *valid* slices; greedy may keep a
        superset of dependency's slice when its larger exact formulas
        push the solver into the conservative UNKNOWN regime."""
        u1 = UpdateStatement("R", {"F": lit(0)}, window(10, 30))
        u1p = UpdateStatement("R", {"F": lit(0)}, window(10, 40))
        statements = [u1]
        for low in (20, 50, 80):
            statements.append(
                UpdateStatement(
                    "R", {"F": col("F") + 1}, window(low, low + 15)
                )
            )
        aligned = align(History(tuple(statements)), [Replace(1, u1p)])
        db = db_with()
        dep = dependency_slice(aligned, db, schemas())
        greedy = greedy_slice(aligned, db, schemas())
        assert set(dep.kept_positions) <= set(greedy.kept_positions)
        verify_slice(db, aligned, dep.kept_positions)
        verify_slice(db, aligned, greedy.kept_positions)

    def test_solver_call_count_linear(self):
        """One solver call per non-modified statement on the relation."""
        u1 = UpdateStatement("R", {"F": lit(0)}, window(10, 30))
        u1p = UpdateStatement("R", {"F": lit(0)}, window(10, 40))
        others = [
            UpdateStatement("R", {"F": col("F") + 1}, window(50, 60))
            for _ in range(4)
        ]
        aligned = align(History.of(u1, *others), [Replace(1, u1p)])
        result = dependency_slice(aligned, db_with(), schemas())
        assert result.solver_calls == 4


class TestStatementBeforeALaterModification:
    """A statement before a later modified one decides which tuples reach
    it, so it is kept — unchecked — even where "affected by both" is
    unsatisfiable."""

    SCHEMA = Schema.of("k", "A", "B")

    def database(self):
        return Database(
            {
                "R": Relation.from_rows(
                    self.SCHEMA, [(k, k, 0) for k in range(6)]
                )
            }
        )

    def query(self):
        history = History(
            tuple(
                parse_history(
                    "UPDATE R SET B = 2 WHERE A >= 3; "
                    "DELETE FROM R WHERE A <= 1; "
                    "UPDATE R SET A = A + 2 WHERE A >= 1"
                )
            )
        )
        return HistoricalWhatIfQuery(
            history,
            self.database(),
            (
                Replace(1, parse_statement(
                    "UPDATE R SET A = A + 2 WHERE A >= 3"
                )),
                Replace(3, parse_statement(
                    "UPDATE R SET B = 1 WHERE A <= 3"
                )),
            ),
        )

    @pytest.mark.parametrize("algorithm", ["dependency", "greedy"])
    def test_every_method_matches_naive(self, algorithm):
        """The delete at 2 hides tuples from the modification at 3:
        dropping it grew the sliced methods' delta from 8 rows to 12."""
        engine = Mahif(MahifConfig(slicing_algorithm=algorithm))
        query = self.query()
        expected = engine.answer(query, Method.NAIVE).delta
        assert sum(
            len(delta.added) + len(delta.removed)
            for delta in expected.relations.values()
        ) == 8
        for method in Method:
            result = engine.answer(query, method)
            assert result.delta == expected, method.value
            if result.slice_result is not None:
                assert result.slice_result.kept_positions == (1, 2, 3)

    def test_kept_without_a_solver_call(self):
        aligned = self.query().aligned()
        result = dependency_slice(
            aligned, self.database(), {"R": self.SCHEMA}
        )
        assert result.kept_positions == (1, 2, 3)
        assert result.solver_calls == 0

    def test_untrimmed_pair_keeps_the_prefix(self):
        """Called on a pair not trimmed to its first modification, the
        statements in front of it are kept too: the delete at 1 hides
        the tuples the modified update at 2 disagrees on."""
        high = ge(col("P"), 80)
        aligned = align(
            History.of(
                DeleteStatement("R", high),
                UpdateStatement("R", {"F": lit(1)}, high),
                UpdateStatement("R", {"F": col("F") + 1}, window(10, 20)),
            ),
            [Replace(2, UpdateStatement("R", {"F": lit(2)}, high))],
        )
        db = db_with()
        result = dependency_slice(aligned, db, schemas())
        assert result.kept_positions == (1, 2)
        assert result.solver_calls == 1
        verify_slice(db, aligned, result.kept_positions)
