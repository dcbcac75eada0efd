"""Differential tests: compiled execution backend vs. the interpreter.

The compiled backend (``repro.relational.exec``) must agree with the
tree-walking interpreter on every expression and operator shape.  These
tests drive both backends through the backend seam (``evaluate_query``,
``evaluate_query_bag``, ``Statement.apply``) over seeded-random
expression trees, operator trees, and whole historical what-if
pipelines (all five ``Method`` variants), including NULL-heavy data —
the interpreter is the oracle.  The random operator trees draw their
seeds from ``fuzz_differential.FUZZ_SEED`` (``MAHIF_FUZZ_SEED``), so a
fresh seed fuzzes the one query compiler anew.
"""

import random

import pytest

from fuzz_differential import fresh_rng, scaled

from repro.core import (
    HistoricalWhatIfQuery,
    Mahif,
    MahifConfig,
    Method,
    Replace,
    slicing_selectivity,
)
from repro.relational import (
    BACKENDS,
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
from repro.relational.exec import (
    compile_expr,
    compile_predicate,
    compile_row,
    resolve_backend,
    split_equijoin_condition,
)
from repro.relational.expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    EvaluationError,
    If,
    IsNull,
    Logic,
    Not,
    TRUE,
    Var,
    and_,
    col,
    eq,
    evaluate,
    ge,
    gt,
    le,
    lit,
    lt,
)
from repro.relational.history import History
from repro.relational.schema import SchemaError
from repro.relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    UpdateStatement,
)

# ---------------------------------------------------------------------------
# random generators (seeded — reproducible without hypothesis)
# ---------------------------------------------------------------------------

ATTRS = ("a", "b", "c", "d")
SCHEMA = Schema.of(*ATTRS)


def random_value(rng, null_pct=0.25):
    roll = rng.random()
    if roll < null_pct:
        return None
    if roll < 0.5:
        return rng.randint(-5, 5)
    if roll < 0.7:
        return round(rng.uniform(-3, 3), 2)
    if roll < 0.85:
        return rng.choice([True, False])
    return rng.choice(["x", "y", "zz"])


def random_numeric(rng, null_pct=0.25):
    if rng.random() < null_pct:
        return None
    return rng.randint(-5, 5)


def random_expr(rng, depth=3, numeric_only=False):
    """A random expression over ATTRS, mixing every node type."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Attr(rng.choice(ATTRS))
        return Const(
            random_numeric(rng) if numeric_only else random_value(rng)
        )
    kind = rng.randrange(7)
    if kind == 0:
        return Arith(
            rng.choice(["+", "-", "*", "/"]),
            random_expr(rng, depth - 1, numeric_only=True),
            random_expr(rng, depth - 1, numeric_only=True),
        )
    if kind == 1:
        return Cmp(
            rng.choice(["=", "!=", "<", "<=", ">", ">="]),
            random_expr(rng, depth - 1, numeric_only=True),
            random_expr(rng, depth - 1, numeric_only=True),
        )
    if kind == 2:
        return Logic(
            rng.choice(["and", "or"]),
            random_condition(rng, depth - 1),
            random_condition(rng, depth - 1),
        )
    if kind == 3:
        return Not(random_condition(rng, depth - 1))
    if kind == 4:
        return IsNull(random_expr(rng, depth - 1))
    if kind == 5:
        return If(
            random_condition(rng, depth - 1),
            random_expr(rng, depth - 1, numeric_only=numeric_only),
            random_expr(rng, depth - 1, numeric_only=numeric_only),
        )
    return random_expr(rng, depth - 1, numeric_only=numeric_only)


def random_condition(rng, depth=2):
    kind = rng.randrange(4)
    if depth == 0 or kind == 0:
        return Cmp(
            rng.choice(["=", "!=", "<", "<=", ">", ">="]),
            Attr(rng.choice(ATTRS)),
            Const(random_numeric(rng)),
        )
    if kind == 1:
        return Logic(
            rng.choice(["and", "or"]),
            random_condition(rng, depth - 1),
            random_condition(rng, depth - 1),
        )
    if kind == 2:
        return Not(random_condition(rng, depth - 1))
    return IsNull(Attr(rng.choice(ATTRS)))


def random_numeric_row(rng, arity=len(ATTRS)):
    return tuple(random_numeric(rng) for _ in range(arity))


def both_outcomes(fn_a, fn_b):
    """Run two callables; assert identical value or identical error type."""
    try:
        a = fn_a()
        a_err = None
    except (EvaluationError, ZeroDivisionError, TypeError) as exc:
        a, a_err = None, type(exc)
    try:
        b = fn_b()
        b_err = None
    except (EvaluationError, ZeroDivisionError, TypeError) as exc:
        b, b_err = None, type(exc)
    assert a_err == b_err, (a_err, b_err)
    if a_err is None:
        assert a == b and type(a) == type(b), (a, b)


# ---------------------------------------------------------------------------
# expression-level differential
# ---------------------------------------------------------------------------

class TestCompiledExpressions:
    def test_random_trees_match_interpreter(self):
        rng = random.Random(1234)
        for trial in range(300):
            expr = random_expr(rng)
            fn = compile_expr(expr, SCHEMA)
            for _ in range(5):
                row = tuple(random_value(rng) for _ in ATTRS)
                both_outcomes(
                    lambda: evaluate(expr, SCHEMA.as_dict(row)),
                    lambda: fn(row),
                )

    def test_numeric_trees_match_interpreter(self):
        rng = random.Random(99)
        for trial in range(300):
            expr = random_expr(rng, depth=4, numeric_only=True)
            fn = compile_expr(expr, SCHEMA)
            for _ in range(5):
                row = random_numeric_row(rng)
                both_outcomes(
                    lambda: evaluate(expr, SCHEMA.as_dict(row)),
                    lambda: fn(row),
                )

    def test_null_propagation_and_division_by_zero(self):
        fn = compile_expr((col("a") + 1) / col("b"), SCHEMA)
        assert fn((None, 2, 0, 0)) is None
        assert fn((1, 0, 0, 0)) is None  # division by zero -> NULL
        assert fn((1, None, 0, 0)) is None
        assert fn((3, 2, 0, 0)) == 2.0

    def test_null_comparison_is_false(self):
        fn = compile_expr(lt(col("a"), col("b")), SCHEMA)
        assert fn((None, 5, 0, 0)) is False
        assert fn((1, None, 0, 0)) is False
        assert fn((1, 5, 0, 0)) is True

    def test_incomparable_values_raise_evaluation_error(self):
        fn = compile_expr(lt(col("a"), col("b")), SCHEMA)
        with pytest.raises(EvaluationError):
            fn((1, "x", 0, 0))

    @pytest.mark.parametrize(
        "tricky", ["O'Brien", 'say "hi"', "back\\slash", "new\nline", "{x!r}"]
    )
    def test_tricky_string_constants_compile(self, tricky):
        """Quotes/escapes/braces in string constants must survive
        codegen (regression: reprs embedded in a generated f-string)."""
        fn = compile_expr(eq(col("d"), lit(tricky)), SCHEMA)
        assert fn((0, 0, 0, tricky)) is True
        assert fn((0, 0, 0, "other")) is False
        with pytest.raises(EvaluationError, match="cannot compare"):
            compile_expr(lt(col("a"), lit(tricky)), SCHEMA)((1, 0, 0, 0))

    def test_unbound_reference_raises_lazily(self):
        expr = If(ge(col("a"), 0), lit(1), Attr("missing"))
        fn = compile_expr(expr, SCHEMA)
        assert fn((5, 0, 0, 0)) == 1  # dead branch never reads "missing"
        with pytest.raises(EvaluationError):
            fn((-5, 0, 0, 0))

    def test_short_circuit_matches_interpreter(self):
        # right operand unbound: must only raise when left doesn't decide
        expr_and = Logic("and", eq(col("a"), 1), gt(Var("free"), 0))
        fn = compile_expr(expr_and, SCHEMA)
        assert fn((0, 0, 0, 0)) is False
        with pytest.raises(EvaluationError):
            fn((1, 0, 0, 0))
        expr_or = Logic("or", eq(col("a"), 1), gt(Var("free"), 0))
        fn = compile_expr(expr_or, SCHEMA)
        assert fn((1, 0, 0, 0)) is True
        with pytest.raises(EvaluationError):
            fn((0, 0, 0, 0))

    def test_compile_row_single_and_empty(self):
        row_fn = compile_row((col("b"),), SCHEMA)
        assert row_fn((1, 2, 3, 4)) == (2,)
        assert compile_row((), SCHEMA)((1, 2, 3, 4)) == ()

    def test_predicate_returns_bool(self):
        pred = compile_predicate(col("a"), SCHEMA)
        assert pred((3, 0, 0, 0)) is True
        assert pred((0, 0, 0, 0)) is False

    def test_compiled_closures_are_cached(self):
        expr = gt(col("a") * 2, col("b"))
        assert compile_expr(expr, SCHEMA) is compile_expr(expr, SCHEMA)


# ---------------------------------------------------------------------------
# plan-level differential (set and bag)
# ---------------------------------------------------------------------------

def random_database(rng, rows=12, null_pct=0.25):
    def rel(arity_schema):
        return Relation.from_rows(
            arity_schema,
            [
                tuple(random_numeric(rng, null_pct) for _ in arity_schema)
                for _ in range(rows)
            ],
        )

    return Database(
        {
            "R": rel(Schema.of("a", "b", "c", "d")),
            "S": rel(Schema.of("a", "b", "c", "d")),
            "T": rel(Schema.of("e", "f")),
        }
    )


def random_plan(rng, depth=3):
    """A random operator tree over R/S (same schema) and T."""
    if depth == 0 or rng.random() < 0.3:
        return RelScan(rng.choice(["R", "S"]))
    kind = rng.randrange(6)
    if kind == 0:
        return Select(random_plan(rng, depth - 1), random_condition(rng))
    if kind == 1:
        child = random_plan(rng, depth - 1)
        outputs = tuple(
            (random_expr(rng, 2, numeric_only=True), name)
            for name in ("a", "b", "c", "d")
        )
        return Project(child, outputs)
    if kind == 2:
        return Union(random_plan(rng, depth - 1), random_plan(rng, depth - 1))
    if kind == 3:
        return Difference(
            random_plan(rng, depth - 1), random_plan(rng, depth - 1)
        )
    if kind == 4:
        # join against T (disjoint attribute names keep concat legal)
        cond = and_(
            eq(col(rng.choice(ATTRS)), col("e")),
            *( [gt(col("f"), 0)] if rng.random() < 0.5 else [] ),
        )
        left = random_plan(rng, depth - 1)
        return Project(
            Join(left, RelScan("T"), cond),
            tuple((col(n), n) for n in ("a", "b", "c", "e")),
        )
    return Union(
        random_plan(rng, depth - 1),
        Singleton(
            Schema.of("a", "b", "c", "d"), random_numeric_row(rng)
        ),
    )


class TestCompiledPlans:
    def test_random_plans_match_interpreter_set_semantics(self):
        rng = fresh_rng(4321)
        for trial in range(scaled(120)):
            db = random_database(rng)
            plan = random_plan(rng)
            try:
                expected = evaluate_query_interpreted(plan, db)
                expected_err = None
            except (SchemaError, EvaluationError) as exc:
                expected, expected_err = None, type(exc)
            try:
                actual = evaluate_query(plan, db, backend="compiled")
                actual_err = None
            except (SchemaError, EvaluationError) as exc:
                actual, actual_err = None, type(exc)
            assert actual_err == expected_err, (trial, actual_err, expected_err)
            if expected_err is None:
                assert actual.schema.attributes == expected.schema.attributes
                assert actual.tuples == expected.tuples, trial

    def test_random_plans_match_interpreter_bag_semantics(self):
        rng = fresh_rng(8765)
        for trial in range(scaled(120)):
            db = BagDatabase.from_set_database(random_database(rng, rows=8))
            plan = random_plan(rng)
            try:
                expected = evaluate_query_bag_interpreted(plan, db)
                expected_err = None
            except (SchemaError, EvaluationError) as exc:
                expected, expected_err = None, type(exc)
            try:
                actual = evaluate_query_bag(plan, db, backend="compiled")
                actual_err = None
            except (SchemaError, EvaluationError) as exc:
                actual, actual_err = None, type(exc)
            assert actual_err == expected_err, (trial, actual_err, expected_err)
            if expected_err is None:
                assert dict(actual.multiplicities) == dict(
                    expected.multiplicities
                ), trial

    def test_bag_projection_preserves_multiplicity(self):
        db = BagDatabase(
            {
                "R": BagRelation.from_rows(
                    Schema.of("a", "b"), [(1, 1), (1, 2), (2, 2)]
                )
            }
        )
        plan = Project(RelScan("R"), ((col("b"), "b"),))
        compiled = evaluate_query_bag(plan, db, backend="compiled")
        interpreted = evaluate_query_bag_interpreted(plan, db)
        assert dict(compiled.multiplicities) == {(1,): 1, (2,): 2}
        assert dict(compiled.multiplicities) == dict(
            interpreted.multiplicities
        )


# ---------------------------------------------------------------------------
# join semantics, through the seam (set and bag)
# ---------------------------------------------------------------------------

def assert_joins_like_interpreter(plan, db):
    """``compiled`` == ``interpreted`` on ``plan`` under set and bag
    semantics; returns the compiled set result."""
    compiled = evaluate_query(plan, db, backend="compiled")
    assert compiled.tuples == evaluate_query_interpreted(plan, db).tuples
    bag_db = BagDatabase.from_set_database(db)
    assert dict(
        evaluate_query_bag(plan, bag_db, backend="compiled").multiplicities
    ) == dict(evaluate_query_bag_interpreted(plan, bag_db).multiplicities)
    return compiled


class TestJoinSemantics:
    def make_db(self):
        return Database(
            {
                "L": Relation.from_rows(
                    Schema.of("a", "b"),
                    [(1, 10), (2, 20), (None, 30), (True, 40), (2, 50)],
                ),
                "R2": Relation.from_rows(
                    Schema.of("c", "d"),
                    [(1, "x"), (2, "y"), (None, "z"), (1.0, "w")],
                ),
            }
        )

    def test_equijoin_matches_interpreter(self):
        db = self.make_db()
        plan = Join(RelScan("L"), RelScan("R2"), eq(col("a"), col("c")))
        assert assert_joins_like_interpreter(plan, db).tuples

    def test_null_keys_never_match(self):
        db = self.make_db()
        plan = Join(RelScan("L"), RelScan("R2"), eq(col("a"), col("c")))
        rows = assert_joins_like_interpreter(plan, db).tuples
        assert all(row[0] is not None and row[2] is not None for row in rows)

    def test_nan_keys_never_match(self):
        """nan == nan is False, so the same NaN object on both sides
        must not join (regression: dict probes take an identity fast
        path the interpreter's == does not)."""
        nan = float("nan")
        db = Database(
            {
                "L": Relation.from_rows(Schema.of("a", "b"), [(nan, 1), (2.0, 2)]),
                "R2": Relation.from_rows(Schema.of("c", "d"), [(nan, 10), (2.0, 20)]),
            }
        )
        plan = Join(RelScan("L"), RelScan("R2"), eq(col("a"), col("c")))
        compiled = assert_joins_like_interpreter(plan, db).tuples
        assert compiled == frozenset({(2.0, 2, 2.0, 20)})

    def test_bool_int_float_key_coercion_matches_interpreter(self):
        # SQL-ish equality: True == 1 == 1.0; dict hashing agrees.
        db = self.make_db()
        plan = Join(RelScan("L"), RelScan("R2"), eq(col("a"), col("c")))
        compiled = assert_joins_like_interpreter(plan, db).tuples
        assert (True, 40, 1, "x") in compiled  # bool joins int

    def test_residual_condition_applies(self):
        db = self.make_db()
        plan = Join(
            RelScan("L"),
            RelScan("R2"),
            and_(eq(col("a"), col("c")), gt(col("b"), 15)),
        )
        compiled = assert_joins_like_interpreter(plan, db).tuples
        assert compiled and all(row[1] > 15 for row in compiled)

    def test_non_equi_join_matches(self):
        db = Database(
            {
                "L": Relation.from_rows(
                    Schema.of("a", "b"), [(1, 10), (2, 20), (None, 30)]
                ),
                "R2": Relation.from_rows(
                    Schema.of("c", "d"), [(1, "x"), (2.5, "y"), (None, "z")]
                ),
            }
        )
        plan = Join(RelScan("L"), RelScan("R2"), lt(col("a"), col("c")))
        compiled = assert_joins_like_interpreter(plan, db).tuples
        assert compiled == frozenset(
            {(1, 10, 2.5, "y"), (2, 20, 2.5, "y")}
        )

    def test_cross_join_matches(self):
        db = self.make_db()
        plan = Join(RelScan("L"), RelScan("R2"), TRUE)
        assert len(assert_joins_like_interpreter(plan, db).tuples) == 20

    def test_computed_key_expressions(self):
        db = self.make_db()
        plan = Join(
            RelScan("L"), RelScan("R2"), eq(col("a") + 1, col("c") + 1)
        )
        assert assert_joins_like_interpreter(plan, db).tuples

    def test_split_equijoin_condition(self):
        left, right = Schema.of("a", "b"), Schema.of("c", "d")
        lk, rk, residual = split_equijoin_condition(
            and_(eq(col("c"), col("a")), gt(col("b"), col("d"))), left, right
        )
        assert lk == (col("a"),) and rk == (col("c"),)
        assert residual == gt(col("b"), col("d"))
        lk, rk, residual = split_equijoin_condition(
            lt(col("a"), col("c")), left, right
        )
        assert lk == () and residual == lt(col("a"), col("c"))

    def test_residual_errors_only_on_matching_pairs(self):
        """Documented divergence (DESIGN.md): the interpreter evaluates
        the full condition on every pair and raises on ill-typed
        residuals; the hash join never visits non-matching pairs, so it
        succeeds.  Results agree whenever neither backend raises."""
        db = Database(
            {
                "L": Relation.from_rows(Schema.of("a"), [(1,), (2,)]),
                "R2": Relation.from_rows(Schema.of("c"), [("x",), (2,)]),
            }
        )
        # Residual 'c < a+1' is ill-typed for the ("x",) row.  It comes
        # FIRST so the interpreter's left-to-right short-circuit reaches
        # it on every pair; the hash join still hoists the equality into
        # the key and only evaluates the residual on matching pairs.
        plan = Join(
            RelScan("L"),
            RelScan("R2"),
            and_(lt(col("c"), col("a") + 1), eq(col("a"), col("c"))),
        )
        with pytest.raises(EvaluationError):
            evaluate_query_interpreted(plan, db)
        compiled = evaluate_query(plan, db, backend="compiled")
        assert compiled.tuples == frozenset({(2, 2)})
        bag_db = BagDatabase.from_set_database(db)
        with pytest.raises(EvaluationError):
            evaluate_query_bag_interpreted(plan, bag_db)
        bag = evaluate_query_bag(plan, bag_db, backend="compiled")
        assert dict(bag.multiplicities) == {(2, 2): 1}

    def test_free_variables_stay_in_residual(self):
        left, right = Schema.of("a"), Schema.of("c")
        lk, rk, residual = split_equijoin_condition(
            eq(col("a"), Var("v")), left, right
        )
        assert lk == ()
        assert residual == eq(col("a"), Var("v"))

    def test_free_variable_in_residual_raises_like_interpreter(self):
        """A symbolic variable cannot be read by either backend: both
        raise, on set and bag semantics alike."""
        db = self.make_db()
        plan = Join(
            RelScan("L"),
            RelScan("R2"),
            and_(eq(col("a"), col("c")), gt(Var("v"), 0)),
        )
        bag_db = BagDatabase.from_set_database(db)
        for run in (
            lambda: evaluate_query_interpreted(plan, db),
            lambda: evaluate_query(plan, db, backend="compiled"),
            lambda: evaluate_query_bag_interpreted(plan, bag_db),
            lambda: evaluate_query_bag(plan, bag_db, backend="compiled"),
        ):
            with pytest.raises(EvaluationError):
                run()

    def test_same_plan_over_two_layouts(self):
        """One tree over two schemas with the attribute at another
        position: the compiled predicate must follow the position."""
        plan = Select(RelScan("R"), gt(col("a"), 0))
        first = Database(
            {"R": Relation.from_rows(Schema.of("a", "b"), [(1, -5)])}
        )
        second = Database(
            {"R": Relation.from_rows(Schema.of("x", "a"), [(1, -5)])}
        )
        assert assert_joins_like_interpreter(plan, first).tuples == (
            frozenset({(1, -5)})
        )
        assert assert_joins_like_interpreter(plan, second).tuples == (
            frozenset()
        )


# ---------------------------------------------------------------------------
# union / difference schema-name validation (satellite)
# ---------------------------------------------------------------------------

class TestUnionNameValidation:
    def make_db(self):
        return Database(
            {
                "R": Relation.from_rows(Schema.of("a", "b"), [(1, 2)]),
                "S": Relation.from_rows(Schema.of("x", "y"), [(3, 4)]),
                "A3": Relation.from_rows(Schema.of("p", "q", "r"), [(1, 2, 3)]),
            }
        )

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    @pytest.mark.parametrize("op_cls", [Union, Difference])
    def test_name_mismatch_rejected(self, backend, op_cls):
        db = self.make_db()
        plan = op_cls(RelScan("R"), RelScan("S"))
        with pytest.raises(SchemaError, match="attribute-name mismatch"):
            evaluate_query(plan, db, backend=backend)

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    @pytest.mark.parametrize("op_cls", [Union, Difference])
    def test_arity_mismatch_still_rejected(self, backend, op_cls):
        db = self.make_db()
        plan = op_cls(RelScan("R"), RelScan("A3"))
        with pytest.raises(SchemaError, match="arity mismatch"):
            evaluate_query(plan, db, backend=backend)

    def test_bag_union_all_and_monus_reject_names(self):
        left = BagRelation.from_rows(Schema.of("a", "b"), [(1, 2)])
        right = BagRelation.from_rows(Schema.of("x", "y"), [(1, 2)])
        with pytest.raises(SchemaError, match="attribute-name mismatch"):
            left.union_all(right)
        with pytest.raises(SchemaError, match="attribute-name mismatch"):
            left.monus(right)

    def test_insert_select_stays_positional(self):
        """INSERT ... SELECT relabels the query result (SQL semantics):
        differently-named source columns are not a union mismatch."""
        db = self.make_db()
        stmt = InsertQuery("R", RelScan("S"))
        assert (3, 4) in stmt.apply(db)["R"].tuples
        bag_db = BagDatabase.from_set_database(db)
        from repro.relational import apply_statement_bag

        assert (3, 4) in apply_statement_bag(stmt, bag_db)["R"].multiplicities

    def test_insert_select_reenactment_arity_mismatch_raises(self):
        """A wider/narrower source query must raise the same arity error
        the direct apply paths raise — not silently truncate columns."""
        from repro.core import reenactment_queries

        db = self.make_db()
        history = History.of(InsertQuery("R", RelScan("A3")))  # arity 3 vs 2
        schemas = {name: db.schema_of(name) for name in db.relations}
        with pytest.raises(SchemaError, match="arity 3 does not match"):
            reenactment_queries(history, schemas)

    def test_insert_select_reenactment_relabels(self):
        """Reenactment of a positional INSERT ... SELECT must relabel
        the query to the target schema — the name check must not reject
        histories that apply cleanly (regression)."""
        from repro.core import reenactment_queries

        db = self.make_db()
        history = History.of(
            UpdateStatement("R", {"b": col("b") + 1}, ge(col("a"), 0)),
            InsertQuery("R", RelScan("S")),  # S has names (x, y)
        )
        schemas = {name: db.schema_of(name) for name in db.relations}
        queries = reenactment_queries(history, schemas)
        expected = history.execute(db)["R"]
        for backend in ("compiled", "interpreted"):
            reenacted = evaluate_query(queries["R"], db, backend=backend)
            assert reenacted.tuples == expected.tuples, backend
        # end-to-end: a modification over such a history, every method
        query = HistoricalWhatIfQuery(
            history,
            db,
            (
                Replace(
                    1,
                    UpdateStatement("R", {"b": col("b") + 2}, ge(col("a"), 0)),
                ),
            ),
        )
        reference = None
        for backend in ("interpreted", "compiled"):
            engine = Mahif(MahifConfig(backend=backend))
            for method in Method:
                delta = engine.answer(query, method).delta
                if reference is None:
                    reference = delta
                else:
                    assert delta == reference, (backend, method.value)


# ---------------------------------------------------------------------------
# statements through both backends
# ---------------------------------------------------------------------------

class TestCompiledStatements:
    def random_statement(self, rng, schema):
        kind = rng.randrange(3)
        if kind == 0:
            sets = {
                rng.choice(ATTRS): random_expr(rng, 2, numeric_only=True)
            }
            return UpdateStatement("R", sets, random_condition(rng))
        if kind == 1:
            return DeleteStatement("R", random_condition(rng))
        return InsertTuple("R", random_numeric_row(rng))

    def test_history_replay_matches_interpreter(self):
        rng = random.Random(2024)
        schema = Schema.of(*ATTRS)
        for trial in range(40):
            rows = [random_numeric_row(rng) for _ in range(10)]
            db = Database({"R": Relation.from_rows(schema, rows)})
            history = History.of(
                *[self.random_statement(rng, schema) for _ in range(5)]
            )
            compiled = history.execute(db, backend="compiled")
            interpreted = history.execute(db, backend="interpreted")
            assert compiled.same_contents(interpreted), trial

    def test_update_merging_rows_matches(self):
        schema = Schema.of("a", "b")
        db = Database(
            {"R": Relation.from_rows(schema, [(1, 1), (2, 1), (3, 2)])}
        )
        stmt = UpdateStatement("R", {"a": lit(0)}, eq(col("b"), 1))
        compiled = stmt.apply(db, backend="compiled")
        interpreted = stmt.apply(db, backend="interpreted")
        assert compiled["R"].tuples == interpreted["R"].tuples
        assert compiled["R"].tuples == frozenset({(0, 1), (3, 2)})


# ---------------------------------------------------------------------------
# INSERT ... SELECT replay: the query runs columnar (set and bag)
# ---------------------------------------------------------------------------

NAN = float("nan")


def typed_counts(rows, counts=None):
    """Rows as a multiset of type-tagged cells: ``1``, ``1.0`` and
    ``True`` stay apart, every NaN object reads as one ``"nan"``."""
    from collections import Counter

    def cell(value):
        return (type(value).__name__, "nan" if value != value else value)

    tally = Counter()
    for row in rows:
        tally[tuple(map(cell, row))] += 1 if counts is None else counts[row]
    return tally


class TestInsertSelectReplay:
    def make_db(self):
        return Database(
            {
                "R": Relation.from_rows(
                    Schema.of("a", "b"), [(1, None), (NAN, 2.5), (True, 3)]
                ),
                "S": Relation.from_rows(
                    Schema.of("x", "y"),
                    [(1, None), (None, 4), (NAN, 2.5), (1.0, 0),
                     (False, 7), (2, True)],
                ),
                "T": Relation.from_rows(
                    Schema.of("e", "f"),
                    [(1, "one"), (0, "zero"), (None, "null"), (NAN, "nan")],
                ),
                "W": Relation.from_rows(Schema.of("p", "q", "r"), [(1, 2, 3)]),
            }
        )

    QUERIES = {
        "nulls, nan, bool beside int": RelScan("S"),
        "selection over nulls": Select(RelScan("S"), ge(col("y"), 1)),
        "computed columns": Project(
            RelScan("S"), ((col("x") + 1, "a"), (col("y") * 2, "b"))
        ),
        # True/1/1.0 and False/0 keys match; the projection keeps the
        # result rows pairwise unequal, so which of two ``==``-equal
        # rows a set keeps (hash order) cannot decide the cell types.
        "join": Project(
            Join(RelScan("S"), RelScan("T"), eq(col("x"), col("e"))),
            ((col("f"), "a"), (col("y"), "b")),
        ),
        "join with residual": Project(
            Join(
                RelScan("S"),
                RelScan("T"),
                and_(eq(col("x"), col("e")), gt(col("y"), 0)),
            ),
            ((col("e"), "a"), (col("y"), "b")),
        ),
    }

    @pytest.mark.parametrize("name", QUERIES)
    def test_set_replay_matches_interpreter(self, name):
        db = self.make_db()
        stmt = InsertQuery("R", self.QUERIES[name])
        compiled = stmt.apply(db, backend="compiled")["R"].tuples
        interpreted = stmt.apply(db, backend="interpreted")["R"].tuples
        assert typed_counts(compiled) == typed_counts(interpreted)
        assert len(compiled) > len(db["R"].tuples)

    @pytest.mark.parametrize("name", QUERIES)
    def test_bag_replay_matches_interpreter(self, name):
        from repro.relational import apply_statement_bag

        bag_db = BagDatabase.from_set_database(self.make_db())
        stmt = InsertQuery("R", self.QUERIES[name])
        results = [
            apply_statement_bag(stmt, bag_db, backend=backend)["R"]
            for backend in ("compiled", "interpreted")
        ]
        compiled, interpreted = (
            typed_counts(bag.multiplicities, bag.multiplicities)
            for bag in results
        )
        assert compiled == interpreted

    def test_history_with_insert_select_replays_alike(self):
        """Statements before and after the insert read and write what
        the columnar query produced."""
        from repro.relational import execute_history_bag

        db = self.make_db()
        history = History.of(
            UpdateStatement("S", {"y": col("y") + 1}, ge(col("y"), 1)),
            InsertQuery("R", self.QUERIES["join"]),
            InsertQuery("R", RelScan("S")),
            DeleteStatement("R", IsNull(col("b"))),
        )
        bag_db = BagDatabase.from_set_database(db)
        sets, bags = {}, {}
        for backend in ("compiled", "interpreted"):
            sets[backend] = history.execute(db, backend=backend)["R"]
            bags[backend] = execute_history_bag(
                history, bag_db, backend=backend
            )["R"]
        assert typed_counts(sets["compiled"].tuples) == typed_counts(
            sets["interpreted"].tuples
        )
        assert typed_counts(
            bags["compiled"].multiplicities, bags["compiled"].multiplicities
        ) == typed_counts(
            bags["interpreted"].multiplicities,
            bags["interpreted"].multiplicities,
        )

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_arity_mismatch_raises(self, backend):
        from repro.relational import apply_statement_bag

        db = self.make_db()
        stmt = InsertQuery("R", RelScan("W"))  # arity 3 into arity 2
        with pytest.raises(SchemaError, match="arity 3 does not match"):
            stmt.apply(db, backend=backend)
        with pytest.raises(SchemaError, match="arity 3 does not match"):
            apply_statement_bag(
                stmt, BagDatabase.from_set_database(db), backend=backend
            )


# ---------------------------------------------------------------------------
# whole-engine differential: all five methods, both backends
# ---------------------------------------------------------------------------

def random_history_and_modification(rng, schema, relation="R"):
    statements = []
    for _ in range(rng.randint(2, 6)):
        kind = rng.random()
        if kind < 0.6:
            statements.append(
                UpdateStatement(
                    relation,
                    {"b": col("b") + rng.randint(-2, 2)},
                    and_(
                        ge(col("a"), rng.randint(-5, 0)),
                        le(col("a"), rng.randint(1, 6)),
                    ),
                )
            )
        elif kind < 0.8:
            statements.append(
                DeleteStatement(relation, ge(col("b"), rng.randint(5, 9)))
            )
        else:
            statements.append(
                InsertTuple(
                    relation,
                    (rng.randint(0, 9), rng.randint(-5, 5), rng.randint(0, 1)),
                )
            )
    history = History.of(*statements)
    position = rng.randint(1, len(statements))
    original = statements[position - 1]
    if isinstance(original, UpdateStatement):
        replacement = UpdateStatement(
            relation,
            {"b": col("b") + rng.randint(-3, 3)},
            original.condition,
        )
    elif isinstance(original, DeleteStatement):
        replacement = DeleteStatement(
            relation, ge(col("b"), rng.randint(3, 10))
        )
    else:
        replacement = InsertTuple(
            relation,
            (rng.randint(0, 9), rng.randint(-5, 5), rng.randint(0, 1)),
        )
    return history, Replace(position, replacement)


class TestEngineDifferential:
    def test_all_methods_agree_across_backends(self):
        """Seeded random HWQs: every Method × both backends must produce
        one identical delta (NULL-heavy value column included)."""
        rng = random.Random(77)
        schema = Schema.of("a", "b", "k")
        for trial in range(12):
            rows = [
                (
                    rng.randint(0, 9),
                    rng.choice([None, rng.randint(-5, 5)]),
                    i,  # immutable key: keeps histories key-preserving
                )
                for i in range(rng.randint(6, 14))
            ]
            db = Database({"R": Relation.from_rows(schema, rows)})
            history, modification = random_history_and_modification(
                rng, schema
            )
            query = HistoricalWhatIfQuery(history, db, (modification,))
            reference = None
            for backend in ("interpreted", "compiled"):
                engine = Mahif(MahifConfig(backend=backend))
                for method in Method:
                    delta = engine.answer(query, method).delta
                    if reference is None:
                        reference = delta
                    else:
                        assert delta == reference, (
                            trial,
                            backend,
                            method.value,
                        )

    def test_workload_differential(self):
        """The benchmark workload generator, both backends, all methods."""
        from repro.workloads import WorkloadSpec, build_workload

        workload = build_workload(
            WorkloadSpec(dataset="taxi", rows=120, updates=6, seed=3)
        )
        reference = None
        for backend in ("interpreted", "compiled"):
            engine = Mahif(MahifConfig(backend=backend))
            for method in Method:
                delta = engine.answer(workload.query, method).delta
                if reference is None:
                    reference = delta
                else:
                    assert delta == reference, (backend, method.value)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            MahifConfig(backend="vectorized")

    def test_default_backend_is_compiled(self):
        assert MahifConfig().backend == "compiled"
        assert MahifConfig(backend=None).backend == "compiled"
        assert resolve_backend(None).name == "compiled"


# ---------------------------------------------------------------------------
# data slicing selectivity diagnostic
# ---------------------------------------------------------------------------

class TestSlicingSelectivity:
    def test_selectivity_counts_match_backends(self):
        db = Database(
            {
                "R": Relation.from_rows(
                    Schema.of("a", "b"),
                    [(i, i * 10) for i in range(10)],
                )
            }
        )
        conditions = {"R": ge(col("a"), 6), "missing": TRUE}
        for backend in BACKENDS:
            assert slicing_selectivity(conditions, db, backend=backend) == {
                "R": (4, 10)
            }, backend

    def test_selectivity_runs_on_the_named_backend(self, monkeypatch):
        """``backend="vector"`` reaches the vector executor — it used to
        fall into the interpreter's per-row arm."""
        import dataclasses

        from repro.relational.exec import backend as seam

        calls = []
        real = seam.resolve_backend("vector")

        def spy(op, db):
            calls.append(op)
            return real.evaluate(op, db)

        monkeypatch.setattr(
            seam,
            "_BACKENDS",
            {
                **seam._BACKENDS,
                "vector": dataclasses.replace(real, evaluate=spy),
            },
        )
        db = Database(
            {"R": Relation.from_rows(Schema.of("a"), [(1,), (7,), (9,)])}
        )
        condition = ge(col("a"), 6)
        assert slicing_selectivity({"R": condition}, db, backend="vector") == {
            "R": (2, 3)
        }
        assert calls == [Select(RelScan("R"), condition)]


# ---------------------------------------------------------------------------
# operator trees cross a process boundary (the process-pool path)
# ---------------------------------------------------------------------------

class TestPlanPickling:
    def test_pickled_trees_evaluate_alike(self):
        """The process pool ships operator trees and databases; a
        round-tripped pair evaluates to the same set and bag results."""
        import pickle

        db = Database(
            {
                "R": Relation.from_rows(
                    Schema.of("a", "b"), [(1, 10), (2, 20), (None, 30)]
                ),
                "S": Relation.from_rows(
                    Schema.of("c", "d"), [(1, 5), (2, 6)]
                ),
            }
        )
        plan = Select(
            Join(RelScan("R"), RelScan("S"), eq(col("a"), col("c"))),
            ge(col("d"), 5),
        )
        plan_clone, db_clone = pickle.loads(pickle.dumps((plan, db)))
        assert plan_clone == plan
        assert (
            evaluate_query(plan_clone, db_clone, backend="compiled").tuples
            == evaluate_query(plan, db, backend="compiled").tuples
        )
        bag_db = BagDatabase.from_set_database(db)
        bag_clone = pickle.loads(pickle.dumps(bag_db))
        assert dict(
            evaluate_query_bag(plan_clone, bag_clone).multiplicities
        ) == dict(evaluate_query_bag(plan, bag_db).multiplicities)
