"""Symbolic execution tests: Definition 6 and Theorem 3.

Theorem 3 says updates over VC-tables have possible-world semantics:
``Mod(u(D)) = u(Mod(D))``.  We verify it pointwise: for sampled
assignments, instantiating after symbolic execution equals executing the
statement over the instantiated world.
"""

import itertools

import pytest

from fuzz_differential import fresh_rng, scaled

from repro import Database, History, Relation, Schema
from repro.relational.expressions import (
    Cmp,
    Const,
    TRUE,
    Var,
    col,
    eq,
    evaluate,
    ge,
    le,
    lit,
    variables_of,
)
from repro.relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    UpdateStatement,
    no_op,
)
from repro.relational.algebra import RelScan
from repro.symbolic.symexec import (
    DefiningConjuncts,
    SymbolicExecutionError,
    VariableNamer,
    apply_statement,
    execute_history,
    run_history_single_tuple,
)
from repro.symbolic.vctable import SymbolicTuple, VCDatabase, VCTable

SCHEMA = Schema.of("P", "F")


def fresh_db():
    return VCDatabase.single_tuple_database({"R": SCHEMA}, prefix="x")


def assignments():
    for p in (10, 50, 60):
        for f in (0, 5, 12):
            yield {"x_R_P": p, "x_R_F": f}


def check_theorem3(statement):
    """Mod(u(D0)) == u(Mod(D0)) over sampled assignments."""
    symbolic = apply_statement(fresh_db(), statement, VariableNamer("t"))
    for assignment in assignments():
        # left side: extend the assignment to the fresh variables by
        # solving the (deterministic) defining equalities
        extended = dict(assignment)
        for conjunct in symbolic.global_conjuncts:
            # conjuncts are Var == expr; the unique extension of Theorem 3
            var = conjunct.left
            extended[var.name] = evaluate(conjunct.right, extended)
        left = symbolic.instantiate(extended)
        # right side: run the statement over the concrete world
        world = fresh_db().instantiate(assignment)
        right = statement.apply(world)
        assert left.same_contents(right), (
            f"worlds differ for {assignment}: "
            f"{set(left['R'])} vs {set(right['R'])}"
        )


class TestDefinition6:
    def test_update_semantics(self):
        check_theorem3(
            UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50))
        )

    def test_update_with_arithmetic(self):
        check_theorem3(
            UpdateStatement("R", {"F": col("F") + 5}, le(col("P"), 50))
        )

    def test_update_multiple_attributes(self):
        check_theorem3(
            UpdateStatement(
                "R", {"F": col("F") + 1, "P": col("P") * 2}, ge(col("F"), 5)
            )
        )

    def test_delete_semantics(self):
        check_theorem3(DeleteStatement("R", ge(col("P"), 50)))

    def test_insert_semantics(self):
        check_theorem3(InsertTuple("R", (99, 9)))

    def test_insert_query_rejected(self):
        with pytest.raises(SymbolicExecutionError):
            apply_statement(
                fresh_db(), InsertQuery("R", RelScan("S")), VariableNamer()
            )

    def test_update_reuses_untouched_attribute_variables(self):
        """The optimization below Definition 6: attributes not updated
        keep their variable."""
        stmt = UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50))
        result = apply_statement(fresh_db(), stmt, VariableNamer("t"))
        out = result["R"].tuple_at(0)
        assert out["P"] == Var("x_R_P")  # untouched
        assert out["F"] != Var("x_R_F")  # fresh

    def test_global_condition_size_is_linear(self):
        """n statements over m attributes add at most n*m conjuncts —
        the exponential blow-up avoidance Definition 6 is for."""
        db = fresh_db()
        namer = VariableNamer("t")
        for i in range(10):
            db = apply_statement(
                db,
                UpdateStatement("R", {"F": col("F") + 1}, ge(col("P"), i)),
                namer,
            )
        assert len(db.global_conjuncts) == 10
        assert len(db["R"]) == 1

    def test_delete_conjoins_local_condition(self):
        stmt = DeleteStatement("R", ge(col("P"), 50))
        result = apply_statement(fresh_db(), stmt, VariableNamer("t"))
        local = result["R"].local_condition(0)
        assert evaluate(local, {"x_R_P": 10, "x_R_F": 0}) is True
        assert evaluate(local, {"x_R_P": 60, "x_R_F": 0}) is False


class TestExecuteHistory:
    def test_example6_two_updates(self):
        """Example 6/Figure 10: u1, u2 over the single-tuple instance."""
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50)),
            UpdateStatement("R", {"F": col("F") + 5}, le(col("P"), 100)),
        )
        db = execute_history(fresh_db(), history, prefix="t")
        assert len(db.global_conjuncts) == 2
        # instantiate with P=60, F=3: u1 sets F=0, u2 sets F=5
        assignment = {"x_R_P": 60, "x_R_F": 3}
        for conjunct in db.global_conjuncts:
            assignment[conjunct.left.name] = evaluate(
                conjunct.right, assignment
            )
        world = db.instantiate(assignment)
        assert set(world["R"]) == {(60, 5)}


class TestSingleTupleRun:
    def test_steps_record_every_version(self):
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 50)),
            DeleteStatement("R", ge(col("F"), 3)),
        )
        run = run_history_single_tuple(
            history, "R", SCHEMA, SymbolicTuple.fresh(SCHEMA, "in"), "t"
        )
        assert len(run.steps) == 3  # input + one per statement
        assert run.steps[0][0] == run.input_tuple

    def test_statements_on_other_relations_skipped(self):
        history = History.of(
            UpdateStatement("S", {"F": lit(0)}, TRUE),
            UpdateStatement("R", {"F": lit(1)}, TRUE),
        )
        run = run_history_single_tuple(
            history, "R", SCHEMA, SymbolicTuple.fresh(SCHEMA, "in"), "t"
        )
        assert run.steps[1] == run.steps[0]  # S-statement is a no-op for R
        assert len(run.global_conjuncts) == 1

    def test_inserts_rejected(self):
        history = History.of(InsertTuple("R", (1, 2)))
        with pytest.raises(SymbolicExecutionError):
            run_history_single_tuple(
                history, "R", SCHEMA, SymbolicTuple.fresh(SCHEMA, "in"), "t"
            )


class TestConjunctPruning:
    def test_keeps_transitively_needed(self):
        c1 = eq(Var("a"), Var("b") + 1)
        c2 = eq(Var("b"), Var("c") + 1)
        c3 = eq(Var("z"), Const(0))
        kept = DefiningConjuncts([c1, c2, c3]).needed_by({"a"})
        assert c1 in kept and c2 in kept and c3 not in kept

    def test_empty_needed_drops_all(self):
        c1 = eq(Var("a"), Const(1))
        assert DefiningConjuncts([c1]).needed_by(set()) == []

    def test_non_defining_conjuncts_dropped(self):
        odd = ge(Var("a"), 0)  # not Var == expr
        assert DefiningConjuncts([odd]).needed_by({"a"}) == []


def reference_prune(conjuncts, needed_variables):
    """The fixpoint as first written: every pass re-reads every
    remaining conjunct."""
    remaining = list(conjuncts)
    kept = []
    needed = set(needed_variables)
    changed = True
    while changed and remaining:
        changed = False
        still_remaining = []
        for conjunct in remaining:
            defined = None
            if isinstance(conjunct, Cmp) and conjunct.op == "=":
                if isinstance(conjunct.left, Var):
                    defined = conjunct.left.name
            if defined is not None and defined in needed:
                kept.append(conjunct)
                needed |= variables_of(conjunct)
                changed = True
            else:
                still_remaining.append(conjunct)
        remaining = still_remaining
    return kept


N_PRUNE_TRIALS = 300


def random_conjuncts(rng, names):
    """Defining equalities (chains, cycles, a name defined twice) mixed
    with conjuncts that define nothing: ``>=``, a constant on the left."""
    conjuncts = []
    for _ in range(rng.randint(0, 14)):
        mentioned = rng.sample(names, rng.randint(0, 3))
        right = Const(rng.randint(0, 5))
        for name in mentioned:
            right = right + Var(name)
        kind = rng.random()
        if kind < 0.7:
            conjuncts.append(eq(Var(rng.choice(names)), right))
        elif kind < 0.85:
            conjuncts.append(ge(Var(rng.choice(names)), right))
        else:
            conjuncts.append(eq(Const(1), right))
    return conjuncts


def test_pruning_keeps_the_reference_list_in_its_order():
    """Seeded: one list read once and pruned for several needed sets
    returns what the per-pass reference returns, element for element
    and in the same order — the order the checks' formulas are built
    in."""
    rng = fresh_rng(offset=38)
    names = [f"v{i}" for i in range(8)]
    nonempty = 0
    for _ in range(scaled(N_PRUNE_TRIALS)):
        conjuncts = random_conjuncts(rng, names)
        defining = DefiningConjuncts(conjuncts)
        for _ in range(3):
            needed = set(rng.sample(names, rng.randint(0, 4)))
            expected = reference_prune(conjuncts, needed)
            kept = defining.needed_by(needed)
            assert [id(c) for c in kept] == [id(c) for c in expected]
            assert DefiningConjuncts(conjuncts).needed_by(needed) == kept
            nonempty += bool(kept)
    assert nonempty >= scaled(N_PRUNE_TRIALS) // 2


def test_pruning_reads_each_kept_conjunct_once(monkeypatch):
    """Across the checks of one slicing run, a conjunct's variables are
    read once, however often it is kept."""
    from repro.symbolic import symexec

    reads = []
    real = symexec.variables_of

    def counting(expr):
        reads.append(expr)
        return real(expr)

    monkeypatch.setattr(symexec, "variables_of", counting)
    c1 = eq(Var("a"), Var("b") + 1)
    c2 = eq(Var("b"), Var("c") + 1)
    defining = DefiningConjuncts([c2, c1, ge(Var("a"), 0)])
    for _ in range(4):
        assert defining.needed_by({"a"}) == [c1, c2]
    assert defining.needed_by({"z"}) == []
    assert sorted(map(id, reads)) == sorted([id(c1), id(c2)])
