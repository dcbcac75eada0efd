"""Tests for the static soundness layer (src/repro/static_analysis).

Covers the lattice, the plan verifier (>= 1 accept + 1 reject case per
operator and expression constructor), rewrite certification (the three
PR-2 optimizer bugs must be rejected statically), the engine wiring
behind ``MahifConfig(verify_plans=...)``, and fuzz acceptance: every
plan the differential generators produce must verify clean.
"""

from __future__ import annotations

import random
import time

import pytest

from fuzz_differential import fresh_rng, random_hwq
from test_exec_compiled import random_database, random_plan

from repro.core.engine import Mahif, MahifConfig, Method
from repro.relational.algebra import (
    Difference,
    Join,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
    evaluate_query_interpreted,
    output_schema,
)
from repro.relational.database import Database
from repro.relational.exec.sqlite_sql import MULT_COLUMN
from repro.relational.expressions import (
    FALSE,
    TRUE,
    EvaluationError,
    Arith,
    Attr,
    Cmp,
    Const,
    If,
    IsNull,
    Logic,
    Not,
    Var,
    col,
    eq,
    lit,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema, SchemaError
from repro.static_analysis import (
    BOOL,
    INT,
    NULL_TYPE,
    STR,
    TOP,
    AbstractType,
    PlanVerificationError,
    RewriteUnsoundError,
    abstract_of_type_tag,
    abstract_of_value,
    certify_optimizer_rules,
    check_expr_rewrite,
    check_rewrite,
    infer_expr_type,
    is_condition_like,
    join,
    verify_plan,
    verify_plan_or_raise,
)
from repro.static_analysis.lattice import ordered_comparable

SCHEMAS = {
    "R": Schema.of("a", "b", "c", "d"),
    "S": Schema.of("a", "b", "c", "d"),
    "T": Schema.of("e", "f"),
    "Typed": Schema(("n", "s"), ("int", "str")),
}

#: Environment with *known* kinds, so provable-error rules can fire.
TYPED_ENV = {
    "n": AbstractType(frozenset({"int"}), True),
    "s": AbstractType(frozenset({"str"}), True),
}


def rules_of(violations):
    return {v.rule for v in violations}


def infer(expr, env=None, *, allow_vars=False):
    violations = []
    abstract = infer_expr_type(
        expr, dict(env or TYPED_ENV), violations, "$", allow_vars=allow_vars
    )
    return abstract, violations


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

class TestLattice:
    def test_join_is_least_upper_bound(self):
        assert join(INT, STR) == AbstractType(
            frozenset({"int", "str"}), False
        )
        assert join(INT, NULL_TYPE).nullable is True
        assert join(TOP, BOOL) == TOP
        assert INT.leq(join(INT, STR))
        assert not TOP.leq(INT)

    def test_definitely_null(self):
        assert NULL_TYPE.is_definitely_null
        assert not TOP.is_definitely_null
        assert not INT.is_definitely_null

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AbstractType(frozenset({"complex"}), False)

    def test_abstract_of_value(self):
        assert abstract_of_value(None) == NULL_TYPE
        # bool before int: True is an int subclass but must stay bool
        assert abstract_of_value(True).kinds == frozenset({"bool"})
        assert abstract_of_value(3).kinds == frozenset({"int"})
        assert abstract_of_value(2.5).kinds == frozenset({"float"})
        assert abstract_of_value("x") == STR
        assert abstract_of_value(b"raw") is None
        assert abstract_of_value(object()) is None

    def test_maybe_zero_refinement(self):
        assert abstract_of_value(0).maybe_zero
        assert not abstract_of_value(2).maybe_zero
        assert abstract_of_value(0.0).maybe_zero
        assert not abstract_of_value(True).maybe_zero

    def test_type_tags(self):
        assert abstract_of_type_tag("int").kinds == frozenset({"int"})
        assert abstract_of_type_tag("int").nullable  # columns may be NULL
        assert abstract_of_type_tag("any") == TOP
        assert abstract_of_type_tag("no-such-tag") == TOP

    def test_ordered_comparable(self):
        assert ordered_comparable(INT, BOOL)  # numeric group
        assert ordered_comparable(STR, STR)
        assert not ordered_comparable(INT, STR)
        assert ordered_comparable(NULL_TYPE, STR)  # NULL short-circuits
        assert ordered_comparable(TOP, INT)  # may be numeric

    def test_is_condition_like(self):
        assert is_condition_like(eq(col("a"), 1))
        assert is_condition_like(Not(TRUE))
        assert is_condition_like(IsNull(col("a")))
        assert is_condition_like(col("a"))  # may be bool at runtime
        assert is_condition_like(If(TRUE, FALSE, TRUE))
        assert not is_condition_like(Arith("+", col("a"), lit(1)))
        assert not is_condition_like(lit(7))


# ---------------------------------------------------------------------------
# expression typing: >= 1 accept + 1 reject per constructor
# ---------------------------------------------------------------------------

class TestExpressionTyping:
    def test_const_accept_reject(self):
        abstract, violations = infer(Const(3))
        assert violations == [] and abstract.kinds == frozenset({"int"})
        _, violations = infer(Const(b"raw"))
        assert rules_of(violations) == {"bad-constant"}

    def test_attr_accept_reject(self):
        abstract, violations = infer(Attr("n"))
        assert violations == [] and abstract.kinds == frozenset({"int"})
        _, violations = infer(Attr("missing"))
        assert rules_of(violations) == {"unresolved-attribute"}

    def test_var_accept_reject(self):
        _, violations = infer(Var("v"), allow_vars=True)
        assert violations == []
        _, violations = infer(Var("v"), allow_vars=False)
        assert rules_of(violations) == {"unbound-variable"}

    def test_arith_accept_reject(self):
        abstract, violations = infer(Arith("+", Attr("n"), Const(1)))
        assert violations == []
        assert abstract.nullable  # n is a nullable column
        _, violations = infer(Arith("+", Attr("s"), Const(1)))
        assert rules_of(violations) == {"bad-arith-operand"}

    def test_arith_null_propagation(self):
        abstract, violations = infer(Arith("*", Const(None), Const(0)))
        assert violations == [] and abstract == NULL_TYPE

    def test_division_nullability(self):
        # x / 0 evaluates to NULL: nullable unless the denominator is a
        # provably non-zero constant.
        maybe_zero, _ = infer(Arith("/", Const(1), Attr("n")))
        assert maybe_zero.nullable
        non_zero, _ = infer(Arith("/", Const(1), Const(2)))
        assert not non_zero.nullable

    def test_cmp_accept_reject(self):
        abstract, violations = infer(Cmp("<", Attr("n"), Const(1)))
        assert violations == []
        assert abstract == AbstractType(frozenset({"bool"}), False)
        _, violations = infer(Cmp("<", Attr("s"), Const(1)))
        assert rules_of(violations) == {"incomparable"}
        # equality never raises at runtime, any kinds
        _, violations = infer(Cmp("=", Attr("s"), Const(1)))
        assert violations == []

    def test_logic_accept_reject(self):
        good = Logic("and", TRUE, eq(Attr("n"), Const(1)))
        _, violations = infer(good)
        assert violations == []
        bad = Logic("or", TRUE, Cmp("<", Attr("missing"), Const(1)))
        _, violations = infer(bad)
        assert rules_of(violations) == {"unresolved-attribute"}

    def test_not_accept_reject(self):
        _, violations = infer(Not(eq(Attr("n"), Const(1))))
        assert violations == []
        _, violations = infer(Not(Attr("missing")))
        assert rules_of(violations) == {"unresolved-attribute"}

    def test_isnull_accept_reject(self):
        abstract, violations = infer(IsNull(Attr("n")))
        assert violations == [] and abstract.kinds == frozenset({"bool"})
        _, violations = infer(IsNull(Attr("missing")))
        assert rules_of(violations) == {"unresolved-attribute"}

    def test_if_accept_reject(self):
        good = If(eq(Attr("n"), 1), Const(1), Attr("n"))
        abstract, violations = infer(good)
        assert violations == []
        assert abstract.kinds == frozenset({"int"}) and abstract.nullable
        bad_cond = If(Arith("+", Attr("n"), Const(1)), Const(1), Const(2))
        _, violations = infer(bad_cond)
        assert rules_of(violations) == {"non-condition"}

    def test_one_bad_leaf_one_violation(self):
        # a bad leaf types as TOP, so it must not cascade into extra
        # violations on enclosing operators
        _, violations = infer(Arith("+", Attr("missing"), Const(1)))
        assert len(violations) == 1


# ---------------------------------------------------------------------------
# plan verification: >= 1 accept + 1 reject per operator
# ---------------------------------------------------------------------------

class TestPlanVerifier:
    def test_relscan_accept_reject(self):
        assert verify_plan(RelScan("R"), SCHEMAS) == []
        violations = verify_plan(RelScan("nope"), SCHEMAS)
        assert rules_of(violations) == {"unknown-relation"}

    def test_singleton_accept_reject(self):
        good = Singleton(Schema.of("a", "b"), (1, None))
        assert verify_plan(good, SCHEMAS) == []
        bad = Singleton(Schema.of("a"), (b"raw",))
        violations = verify_plan(bad, SCHEMAS)
        assert rules_of(violations) == {"bad-constant"}

    def test_project_accept_reject(self):
        good = Project(
            RelScan("R"), ((col("a"), "a"), (col("b") + 1, "b2"))
        )
        assert verify_plan(good, SCHEMAS) == []
        bad = Project(RelScan("R"), ((Attr("missing"), "x"),))
        violations = verify_plan(bad, SCHEMAS)
        assert rules_of(violations) == {"unresolved-attribute"}

    def test_select_accept_reject(self):
        good = Select(RelScan("R"), eq(col("a"), 1))
        assert verify_plan(good, SCHEMAS) == []
        bad = Select(RelScan("R"), Arith("+", col("a"), lit(1)))
        violations = verify_plan(bad, SCHEMAS)
        assert rules_of(violations) == {"non-condition"}

    def test_union_accept_reject(self):
        good = Union(RelScan("R"), RelScan("S"))
        assert verify_plan(good, SCHEMAS) == []
        arity = Union(RelScan("R"), RelScan("T"))
        assert rules_of(verify_plan(arity, SCHEMAS)) == {"arity-mismatch"}
        renamed = Project(
            RelScan("R"),
            tuple((col(n), n + "_2") for n in ("a", "b", "c", "d")),
        )
        names = Union(RelScan("R"), renamed)
        assert rules_of(verify_plan(names, SCHEMAS)) == {"name-mismatch"}

    def test_difference_accept_reject(self):
        good = Difference(RelScan("R"), RelScan("S"))
        assert verify_plan(good, SCHEMAS) == []
        bad = Difference(RelScan("R"), RelScan("T"))
        assert rules_of(verify_plan(bad, SCHEMAS)) == {"arity-mismatch"}

    def test_join_accept_reject(self):
        good = Join(RelScan("R"), RelScan("T"), eq(col("a"), col("e")))
        assert verify_plan(good, SCHEMAS) == []
        clash = Join(RelScan("R"), RelScan("S"))
        assert rules_of(verify_plan(clash, SCHEMAS)) == {"join-name-clash"}

    def test_typed_columns_reach_conditions(self):
        # provable errors through the env built from schema type tags
        bad = Select(RelScan("Typed"), Cmp("<", col("s"), lit(1)))
        assert rules_of(verify_plan(bad, SCHEMAS)) == {"incomparable"}
        ok = Select(RelScan("Typed"), Cmp("<", col("n"), lit(1)))
        assert verify_plan(ok, SCHEMAS) == []

    def test_violation_paths_point_at_the_node(self):
        plan = Union(
            RelScan("R"), Select(RelScan("S"), Cmp("=", Attr("zz"), TRUE))
        )
        (violation,) = verify_plan(plan, SCHEMAS)
        assert "Union.right" in violation.path
        assert "Select.condition" in violation.path
        assert "zz" in str(violation)

    def test_reserved_attribute_only_under_bag(self):
        plan = Project(RelScan("R"), ((col("a"), MULT_COLUMN),))
        assert verify_plan(plan, SCHEMAS, semantics="set") == []
        violations = verify_plan(plan, SCHEMAS, semantics="bag")
        assert rules_of(violations) == {"reserved-attribute"}

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ValueError):
            verify_plan(RelScan("R"), SCHEMAS, semantics="multiset")

    def test_or_raise_carries_context_and_violations(self):
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_plan_or_raise(
                RelScan("nope"), SCHEMAS, context="unit test"
            )
        assert "unit test" in str(excinfo.value)
        assert excinfo.value.violations[0].rule == "unknown-relation"
        verify_plan_or_raise(RelScan("R"), SCHEMAS)  # clean: no raise


# ---------------------------------------------------------------------------
# rewrite certification — the PR-2 regression suite
# ---------------------------------------------------------------------------

X_EQ_X = Cmp("=", Attr("x"), Attr("x"))
X_TIMES_0 = Arith("*", Attr("x"), Const(0))
NOT_LT = Not(Cmp("<", Attr("x"), Attr("y")))
FLIPPED = Cmp(">=", Attr("x"), Attr("y"))


class TestExprRewriteCheck:
    def test_rejects_x_eq_x_to_true(self):
        with pytest.raises(RewriteUnsoundError, match="unsound"):
            check_expr_rewrite(X_EQ_X, TRUE)

    def test_rejects_x_times_zero_to_zero(self):
        # killed by the lattice alone: nullable -> provably non-NULL
        with pytest.raises(RewriteUnsoundError, match="nullable"):
            check_expr_rewrite(X_TIMES_0, Const(0))

    def test_rejects_not_comparison_flip(self):
        with pytest.raises(RewriteUnsoundError):
            check_expr_rewrite(NOT_LT, FLIPPED)

    def test_rejection_is_memoized(self):
        # the second call must hit the cache and still raise
        for _ in range(2):
            with pytest.raises(RewriteUnsoundError):
                check_expr_rewrite(X_EQ_X, TRUE)

    def test_accepts_sound_rewrites(self):
        check_expr_rewrite(Arith("+", Attr("x"), Const(0)), Attr("x"))
        check_expr_rewrite(Cmp("!=", Attr("x"), Attr("x")), FALSE)
        phi = eq(col("x"), 1)
        check_expr_rewrite(Not(Not(phi)), phi)
        check_expr_rewrite(Arith("/", Const(4), Const(2)), Const(2.0))
        check_expr_rewrite(X_EQ_X, X_EQ_X)  # identity is always sound


class TestPlanRewriteCheck:
    def test_rejects_bad_rewrites_in_plans(self):
        scan = RelScan("R")
        bad_pairs = [
            (Select(scan, X_EQ_X), Select(scan, TRUE)),
            (
                Project(scan, ((X_TIMES_0.left * 0, "a"),)),
                Project(scan, ((Const(0), "a"),)),
            ),
            (Select(scan, NOT_LT), Select(scan, FLIPPED)),
        ]
        schemas = {"R": Schema.of("x", "y")}
        for before, after in bad_pairs:
            with pytest.raises(RewriteUnsoundError):
                check_rewrite(before, after, schemas)

    def test_rejects_schema_change(self):
        before = Project(RelScan("R"), ((col("x"), "x"),))
        after = Project(RelScan("R"), ((col("x"), "renamed"),))
        with pytest.raises(RewriteUnsoundError, match="output schema"):
            check_rewrite(before, after, {"R": Schema.of("x", "y")})

    def test_accepts_identity_and_sound_pushes(self):
        schemas = {"R": Schema.of("x", "y")}
        plan = Select(RelScan("R"), eq(col("x"), 1))
        check_rewrite(plan, plan, schemas)
        # selection reordering is sound
        nested = Select(
            Select(RelScan("R"), eq(col("x"), 1)), eq(col("y"), 2)
        )
        swapped = Select(
            Select(RelScan("R"), eq(col("y"), 2)), eq(col("x"), 1)
        )
        check_rewrite(nested, swapped, schemas)

    def test_certify_optimizer_over_fuzz_corpus(self):
        # the shipping rule catalogue must certify on generated plans
        rng = random.Random(20260808)
        certified = 0
        for _ in range(40):
            plan = random_plan(rng)
            try:
                output_schema(
                    plan, {n: s for n, s in SCHEMAS.items() if n != "Typed"}
                )
            except SchemaError:
                continue  # generator produced an invalid tree: skip
            certify_optimizer_rules(
                plan, {n: s for n, s in SCHEMAS.items() if n != "Typed"}
            )
            certified += 1
        assert certified >= 10


# ---------------------------------------------------------------------------
# fuzz acceptance: generated plans verify clean
# ---------------------------------------------------------------------------

class TestFuzzAcceptance:
    def test_random_plans_verify_clean(self):
        """Soundness: any plan the reference evaluator accepts must pass
        the verifier (no false positives on the fuzz corpus)."""
        rng = random.Random(424242)
        schemas = {n: s for n, s in SCHEMAS.items() if n != "Typed"}
        db = random_database(rng)
        checked = 0
        for _ in range(60):
            plan = random_plan(rng)
            try:
                evaluate_query_interpreted(plan, db)
            except (SchemaError, EvaluationError):
                # runtime rejects it (schema clash / unbound attribute
                # behind a union): the verifier must flag it too
                assert verify_plan(plan, schemas) != []
                continue
            assert verify_plan(plan, schemas) == [], str(plan)
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize(
        "method", [Method.R, Method.R_DS, Method.R_PS, Method.R_PS_DS]
    )
    def test_engine_verifies_differential_hwqs(self, method):
        """verify_plans=True must accept 100% of the differential
        generator's reenactment plans, and change no answers."""
        for seed in range(6):
            query = random_hwq(fresh_rng(9000 + seed))
            verified = Mahif(MahifConfig(verify_plans=True)).answer(
                query, method
            )
            plain = Mahif(MahifConfig(verify_plans=False)).answer(
                query, method
            )
            assert verified.delta == plain.delta


# ---------------------------------------------------------------------------
# engine wiring
# ---------------------------------------------------------------------------

class TestEngineWiring:
    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv("MAHIF_VERIFY_PLANS", "1")
        assert MahifConfig().verify_plans is True
        monkeypatch.setenv("MAHIF_VERIFY_PLANS", "0")
        assert MahifConfig().verify_plans is False
        monkeypatch.delenv("MAHIF_VERIFY_PLANS")
        assert MahifConfig().verify_plans is False
        # an explicit setting wins over the environment
        monkeypatch.setenv("MAHIF_VERIFY_PLANS", "0")
        assert MahifConfig(verify_plans=True).verify_plans is True

    def test_engine_rejects_unsound_optimizer(self, monkeypatch):
        """Re-inject an optimizer bug; the engine must refuse the plan."""
        import repro.core.plan as plan_mod

        def broken_optimize(op, config=None):
            return Difference(op, op)  # always-empty: provably unsound

        monkeypatch.setattr(plan_mod, "optimize", broken_optimize)
        query = random_hwq(fresh_rng(31337))
        config = MahifConfig(verify_plans=True)
        with pytest.raises(PlanVerificationError) as excinfo:
            Mahif(config).answer(query, Method.R)
        assert excinfo.value.violations[0].rule == "unsound-rewrite"
        # with verification off the broken plan sails through silently —
        # the rejection above is the layer's whole point
        Mahif(MahifConfig(verify_plans=False)).answer(query, Method.R)

    def test_batch_path_inherits_verification(self, monkeypatch):
        import repro.core.plan as plan_mod

        def broken_optimize(op, config=None):
            return Difference(op, op)

        monkeypatch.setattr(plan_mod, "optimize", broken_optimize)
        query = random_hwq(fresh_rng(777))
        with pytest.raises(PlanVerificationError):
            Mahif(MahifConfig(verify_plans=True)).answer_batch(
                [query], Method.R
            )

    def test_verification_overhead_is_bounded(self):
        """Certification is memoized; repeated answering must not blow
        up.  The bound is deliberately generous (CI machines are noisy);
        the <5% acceptance number is measured by the benchmark smoke."""
        query = random_hwq(fresh_rng(555), rows=20)

        def timed(verify):
            engine = Mahif(MahifConfig(verify_plans=verify))
            start = time.perf_counter()
            for _ in range(5):
                engine.answer(query, Method.R_PS_DS)
            return time.perf_counter() - start

        timed(False)  # warm shared caches (plan compile etc.)
        baseline = timed(False)
        with_verify = timed(True)
        assert with_verify < baseline * 5 + 0.5
