"""Property-based tests (hypothesis): the paper's theorems on random
histories and databases.

Strategy: small keyed relations (immutable key ``k``; see the
key-preservation note in DESIGN.md) and random histories of range-window
updates/deletes/inserts over two value attributes.  Properties:

* reenactment equivalence ``R_H(D) = H(D)`` (Definition 3),
* tuple independence (Lemma 1),
* every method agrees with direct execution (Theorems 2/4/5 combined),
* VC-table updates have possible-world semantics (Theorem 3),
* solver satisfiability agrees with finite-domain enumeration
  (:mod:`repro.solver.bruteforce`) in both directions,
* simplification preserves semantics.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, History, Relation, Schema
from repro.core import (
    DatabaseDelta,
    HistoricalWhatIfQuery,
    Mahif,
    Method,
    Replace,
)
from repro.core.reenactment import reenactment_query
from repro.relational.algebra import evaluate_query
from repro.relational.expressions import (
    and_,
    col,
    evaluate,
    ge,
    le,
    lit,
    simplify,
)
from repro.relational.statements import (
    DeleteStatement,
    InsertTuple,
    UpdateStatement,
)

SCHEMA = Schema.of("k", "P", "F")

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- strategies -------------------------------------------------------------

values = st.integers(min_value=0, max_value=100)

rows = st.lists(
    st.tuples(st.integers(1, 30), values, values),
    min_size=0,
    max_size=12,
    unique_by=lambda t: t[0],  # unique keys
)


@st.composite
def windows(draw):
    low = draw(st.integers(0, 90))
    width = draw(st.integers(0, 40))
    attribute = draw(st.sampled_from(["P", "F"]))
    return and_(ge(col(attribute), low), le(col(attribute), low + width))


@st.composite
def update_statements(draw):
    target = draw(st.sampled_from(["P", "F"]))
    kind = draw(st.sampled_from(["const", "add", "scale"]))
    if kind == "const":
        expr = lit(draw(values))
    elif kind == "add":
        expr = col(target) + draw(st.integers(-10, 10))
    else:
        expr = col(target) * draw(st.integers(0, 3))
    return UpdateStatement("R", {target: expr}, draw(windows()))


@st.composite
def statements(draw):
    kind = draw(
        st.sampled_from(["update", "update", "update", "delete", "insert"])
    )
    if kind == "delete":
        return DeleteStatement("R", draw(windows()))
    if kind == "insert":
        key = draw(st.integers(100, 130))
        return InsertTuple("R", (key, draw(values), draw(values)))
    return draw(update_statements())


histories = st.lists(statements(), min_size=1, max_size=5).map(
    lambda ss: History(tuple(ss))
)


def make_db(raw_rows):
    return Database({"R": Relation.from_rows(SCHEMA, raw_rows)})


# -- properties -------------------------------------------------------------

class TestReenactmentEquivalence:
    @SETTINGS
    @given(rows, histories)
    def test_reenactment_equals_execution(self, raw_rows, history):
        db = make_db(raw_rows)
        query = reenactment_query(history, "R", {"R": SCHEMA})
        assert set(evaluate_query(query, db)) == set(
            history.execute(db)["R"]
        )


class TestTupleIndependence:
    @SETTINGS
    @given(rows, statements())
    def test_lemma1(self, raw_rows, stmt):
        db = make_db(raw_rows)
        whole = set(stmt.apply(db)["R"])
        pieces = set()
        for t in db["R"]:
            world = db.with_relation(
                "R", Relation(SCHEMA, frozenset({t}))
            )
            pieces |= set(stmt.apply(world)["R"])
        if not raw_rows and isinstance(stmt, InsertTuple):
            pieces |= {stmt.values}  # union over empty D is empty
        assert whole == pieces


class TestEngineSoundness:
    @SETTINGS
    @given(rows, histories, update_statements(), st.integers(0, 4))
    def test_all_methods_match_direct_execution(
        self, raw_rows, history, replacement, position_seed
    ):
        db = make_db(raw_rows)
        position = position_seed % len(history) + 1
        query = HistoricalWhatIfQuery(
            history, db, (Replace(position, replacement),)
        )
        direct = DatabaseDelta.between(
            history.execute(db),
            query.aligned().modified.execute(db),
        )
        engine = Mahif()
        for method in Method:
            result = engine.answer(query, method)
            assert result.delta == direct, method.value


class TestSimplifySoundness:
    @SETTINGS
    @given(windows(), st.integers(0, 100), st.integers(0, 100))
    def test_simplify_preserves_evaluation(self, condition, p, f):
        binding = {"k": 1, "P": p, "F": f}
        assert evaluate(simplify(condition), binding) == evaluate(
            condition, binding
        )


class TestSymbolicSemantics:
    @SETTINGS
    @given(
        update_statements(),
        st.integers(0, 100),
        st.integers(0, 100),
        st.integers(1, 30),
    )
    def test_theorem3_single_update(self, stmt, p, f, k):
        """Mod(u(D0)) == u(Mod(D0)) for the sampled world."""
        from repro.symbolic.symexec import VariableNamer, apply_statement
        from repro.symbolic.vctable import VCDatabase

        symbolic = apply_statement(
            VCDatabase.single_tuple_database({"R": SCHEMA}, prefix="x"),
            stmt,
            VariableNamer("t"),
        )
        assignment = {"x_R_k": k, "x_R_P": p, "x_R_F": f}
        for conjunct in symbolic.global_conjuncts:
            assignment[conjunct.left.name] = evaluate(
                conjunct.right, assignment
            )
        left = symbolic.instantiate(assignment)
        world = Database(
            {"R": Relation.from_rows(SCHEMA, [(k, p, f)])}
        )
        right = stmt.apply(world)
        assert left.same_contents(right)


class TestSolverCompleteness:
    @SETTINGS
    @given(windows(), windows())
    def test_solver_never_misses_finite_witness(self, w1, w2):
        """If brute force over a small integer grid finds a satisfying
        assignment, the solver (over a superset domain) must agree."""
        from repro.solver import check_satisfiable, is_satisfiable_bruteforce

        formula = and_(w1, w2)
        domains = {"P": range(0, 131, 10), "F": range(0, 131, 10)}
        if is_satisfiable_bruteforce(formula, domains):
            assert check_satisfiable(formula).is_sat

    @SETTINGS
    @given(windows(), windows())
    def test_solver_unsat_implies_no_finite_witness(self, w1, w2):
        """INFEASIBLE answers must really have no witness (soundness of
        the direction program slicing relies on)."""
        from repro.solver import check_satisfiable, enumerate_satisfying

        formula = and_(w1, w2)
        result = check_satisfiable(formula)
        if result.is_unsat:
            domains = {"P": range(0, 131, 5), "F": range(0, 131, 5)}
            assert not any(enumerate_satisfying(formula, domains, limit=1))
