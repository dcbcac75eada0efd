"""Solver substrate tests: MILP model, Figure-13 compiler, branch & bound,
and cross-validation against brute-force enumeration."""

import random

import pytest
from fuzz_differential import FUZZ_SEED, scaled
from test_solver_session import random_definition, random_formula

from repro.relational.expressions import (
    Attr,
    Const,
    IsNull,
    Var,
    and_,
    attributes_of,
    col,
    eq,
    ge,
    gt,
    if_,
    le,
    lit,
    lt,
    neq,
    not_,
    or_,
    variables_of,
)
from repro.relational.parser import parse_expression
from repro.solver import (
    Feasibility,
    FormulaCompiler,
    MILPModel,
    ModelError,
    SolverConfig,
    UnsupportedExpression,
    check_satisfiable,
    enumerate_satisfying,
    is_satisfiable_bruteforce,
    solve,
)
from repro.solver.branch_bound import solve_branch_bound


class TestMILPModel:
    def test_variable_registration(self):
        model = MILPModel()
        model.add_variable("x")
        model.add_variable("x")  # same signature: fine
        with pytest.raises(ModelError):
            model.add_variable("x", "binary")

    def test_binary_bounds_forced(self):
        model = MILPModel()
        b = model.add_variable("b", "binary", -5, 5)
        assert b.lower == 0.0 and b.upper == 1.0

    def test_bad_kind_and_bounds(self):
        model = MILPModel()
        with pytest.raises(ModelError):
            model.add_variable("x", "integer")
        with pytest.raises(ModelError):
            model.add_variable("y", "continuous", 5, 1)

    def test_constraint_unknown_variable(self):
        model = MILPModel()
        with pytest.raises(ModelError):
            model.add_constraint({"nope": 1.0}, "<=", 0.0)

    def test_bad_sense(self):
        model = MILPModel()
        model.add_variable("x")
        with pytest.raises(ModelError):
            model.add_constraint({"x": 1.0}, "<", 0.0)

    def test_check_assignment(self):
        model = MILPModel()
        model.add_variable("x", "continuous", 0, 10)
        model.add_constraint({"x": 1.0}, ">=", 3.0)
        assert model.check_assignment({"x": 5.0})
        assert not model.check_assignment({"x": 1.0})
        assert not model.check_assignment({})

    def test_stats(self):
        model = MILPModel()
        model.add_binary()
        model.add_continuous()
        model.add_constraint({model.variables[0].name: 1.0}, "=", 1.0)
        assert model.stats() == {
            "variables": 2, "binaries": 1, "constraints": 1,
        }


class TestSolve:
    def test_empty_model_feasible(self):
        assert solve(MILPModel()).status is Feasibility.FEASIBLE

    def test_simple_feasible(self):
        model = MILPModel()
        model.add_variable("x", "continuous", 0, 10)
        model.add_constraint({"x": 1.0}, ">=", 3.0)
        result = solve(model)
        assert result.status is Feasibility.FEASIBLE
        assert result.assignment["x"] >= 3.0 - 1e-6

    def test_simple_infeasible(self):
        model = MILPModel()
        model.add_variable("x", "continuous", 0, 10)
        model.add_constraint({"x": 1.0}, ">=", 20.0)
        assert solve(model).status is Feasibility.INFEASIBLE

    def test_binary_integrality_enforced(self):
        # b1 + b2 = 1 with b1 = b2 is LP-feasible (0.5) but MIP-infeasible
        model = MILPModel()
        b1 = model.add_binary()
        b2 = model.add_binary()
        model.add_constraint({b1.name: 1, b2.name: 1}, "=", 1.0)
        model.add_constraint({b1.name: 1, b2.name: -1}, "=", 0.0)
        assert solve(model).status is Feasibility.INFEASIBLE

    def test_own_branch_and_bound_agrees(self):
        model = MILPModel()
        b1 = model.add_binary()
        b2 = model.add_binary()
        model.add_constraint({b1.name: 1, b2.name: 1}, "=", 1.0)
        model.add_constraint({b1.name: 1, b2.name: -1}, "=", 0.0)
        assert solve_branch_bound(model).status is Feasibility.INFEASIBLE

        feasible = MILPModel()
        b = feasible.add_binary()
        feasible.add_constraint({b.name: 1}, ">=", 1.0)
        result = solve_branch_bound(feasible)
        assert result.status is Feasibility.FEASIBLE
        assert result.assignment[b.name] == 1.0


class TestCompiler:
    def test_nonlinear_product_rejected(self):
        compiler = FormulaCompiler()
        with pytest.raises(UnsupportedExpression):
            compiler.compile_numeric(Attr("a") * Attr("b"))

    def test_constant_product_ok(self):
        compiler = FormulaCompiler()
        form = compiler.compile_numeric(Attr("a") * 3)
        assert form.coefficients == {"attr::a": 3.0}

    def test_division_by_variable_rejected(self):
        compiler = FormulaCompiler()
        with pytest.raises(UnsupportedExpression):
            compiler.compile_numeric(Attr("a") / Attr("b"))

    def test_division_by_zero_rejected(self):
        compiler = FormulaCompiler()
        with pytest.raises(UnsupportedExpression):
            compiler.compile_numeric(Attr("a") / 0)

    def test_isnull_rejected(self):
        compiler = FormulaCompiler()
        with pytest.raises(UnsupportedExpression):
            compiler.compile_boolean(IsNull(Attr("a")))

    def test_null_constant_rejected(self):
        compiler = FormulaCompiler()
        with pytest.raises(UnsupportedExpression):
            compiler.compile_numeric(Const(None))

    def test_bare_reference_as_condition_rejected(self):
        compiler = FormulaCompiler()
        with pytest.raises(UnsupportedExpression):
            compiler.compile_boolean(Attr("a"))

    def test_subexpression_cache(self):
        compiler = FormulaCompiler()
        phi = ge(Attr("a"), 5)
        b1 = compiler.compile_boolean(phi)
        b2 = compiler.compile_boolean(ge(Attr("a"), 5))
        assert b1 == b2

    def test_string_encoder_bijective(self):
        compiler = FormulaCompiler()
        code_uk = compiler.encoder.encode("UK")
        code_us = compiler.encoder.encode("US")
        assert code_uk != code_us
        assert compiler.encoder.encode("UK") == code_uk
        assert compiler.encoder.decode(code_uk) == "UK"
        assert compiler.encoder.decode(999) is None


class TestCheckSatisfiable:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("x >= 1 AND x <= 2", True),
            ("x >= 3 AND x <= 2", False),
            ("x > 2 AND x < 3", True),       # continuous domain
            ("x = 1 OR x = 2", True),
            ("NOT (x = x)", False),
            ("x + y = 10 AND x - y = 4 AND x = 7", True),
            ("x + y = 10 AND x - y = 4 AND x = 8", False),
            ("CASE WHEN x >= 0 THEN 1 ELSE 2 END = 2 AND x >= 0", False),
            ("a < b AND b < a", False),
            ("x / 2 >= 5 AND x <= 9", False),
        ],
    )
    def test_numeric_formulas(self, source, expected):
        result = check_satisfiable(parse_expression(source))
        assert result.is_sat is expected

    def test_witness_satisfies_formula(self):
        from repro.relational.expressions import evaluate

        formula = parse_expression("x >= 3 AND y = x + 2 AND y <= 6")
        result = check_satisfiable(formula)
        assert result.is_sat
        assert evaluate(formula, result.witness)

    def test_trivial_short_circuits(self):
        assert check_satisfiable(parse_expression("true")).is_sat
        assert check_satisfiable(parse_expression("false")).is_unsat
        assert check_satisfiable(parse_expression("1 <= 2")).is_sat

    def test_unsupported_returns_unknown(self):
        formula = parse_expression("a * b = 6 AND a = 2")
        result = check_satisfiable(formula)
        assert result.status is Feasibility.UNKNOWN

    def test_string_categorical(self):
        assert check_satisfiable(
            parse_expression("c = 'UK' AND c = 'US'")
        ).is_unsat
        # disable the presolver to force the MILP path and get a witness
        config = SolverConfig(use_interval_presolve=False)
        result = check_satisfiable(
            parse_expression("c = 'UK' AND p >= 5"), config
        )
        assert result.is_sat
        assert result.witness["c"] == "UK"

    def test_model_stats_reported(self):
        config = SolverConfig(use_interval_presolve=False)
        result = check_satisfiable(
            parse_expression("x >= 1 AND x <= 0"), config
        )
        assert result.model_stats["binaries"] >= 2


class TestBruteForce:
    def test_enumerate(self):
        formula = parse_expression("x >= 2 AND x <= 3")
        found = list(
            enumerate_satisfying(formula, {"x": range(5)})
        )
        assert [f["x"] for f in found] == [2, 3]

    def test_missing_domain_raises(self):
        with pytest.raises(KeyError):
            list(enumerate_satisfying(parse_expression("x = 1"), {}))

    def test_limit(self):
        formula = parse_expression("x >= 0")
        found = list(
            enumerate_satisfying(formula, {"x": range(100)}, limit=3)
        )
        assert len(found) == 3

    FIXED = [
        "x >= 2 AND x <= 3",
        "x = 1 OR y = 2",
        "x + y = 4 AND x >= 3",
        "NOT (x = 0) AND x <= 1 AND x >= 0",
        "x > 1 AND x < 2",   # unsat over integers, sat over reals
        "x >= 5 AND x <= 4",
    ]

    def test_milp_vs_bruteforce_integer_domains(self):
        """MILP satisfiability must never be False when brute force over a
        finite integer subdomain finds a witness (MILP domains are a
        superset).  The fixed formulas, then the seeded generator of
        tests/test_solver_session.py (``MAHIF_FUZZ_SEED``/``_SCALE``)."""
        rng = random.Random(FUZZ_SEED)
        formulas = [parse_expression(source) for source in self.FIXED]
        for _ in range(scaled(60)):
            numeric = ["x", "y", "z"][: rng.randint(2, 3)]
            formula = random_formula(rng, numeric, 3)
            if rng.random() < 0.4:
                formula = and_(
                    random_definition(rng, numeric),
                    formula,
                    random_formula(rng, numeric + ["d"], 1),
                )
            formulas.append(formula)
        config = SolverConfig(use_interval_presolve=False)
        for formula in formulas:
            domains = {
                name: ("a", "b") if name == "c" else range(-1, 5)
                for name in variables_of(formula) | attributes_of(formula)
            }
            if is_satisfiable_bruteforce(formula, domains):
                assert check_satisfiable(formula, config).is_sat, (
                    f"seed={FUZZ_SEED}: {formula}"
                )
