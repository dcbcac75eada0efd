"""Compile condition formulas into MILPs (Figure 13 of the paper).

The compilation maps every numeric sub-expression to an affine form (or a
fresh continuous variable constrained with big-M rows, for conditionals)
and every boolean sub-expression to a binary variable linked to its
operands with the linearization rules of Figure 13:

* ``e1 < e2``  →  ``v1 - v2 + b*M >= 0`` and ``v2 - v1 + (1-b)*M >= eps``
* ``e1 and e2`` → ``b1 + b2 - 2b - 1 <= 0`` and ``b1 + b2 - 2b >= 0``
* ``e1 or e2``  → ``b1 + b2 - 2b <= 0`` and ``b1 + b2 - b >= 0``
* ``not e``     → ``b + b1 = 1``
* ``if c then e1 else e2`` → big-M selection of the branch value
* equality is conjunction of ``<=`` and ``>=``; ``!=`` is its negation.

Strings are handled by a categorical encoding: every distinct string
constant in the formula receives an integer code, and variables compared
against strings range over the reals (a safe over-approximation of the set
of possible worlds — see DESIGN.md note 3).

Anything non-linear (variable × variable, division by a variable, NULL
tests over symbolic values) raises :class:`UnsupportedExpression`; callers
treat that check as inconclusive, which is always sound for slicing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..relational.expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    Expr,
    If,
    IsNull,
    Logic,
    Not,
    Var,
    walk,
)
from .milp import MILPModel, Variable

__all__ = [
    "UnsupportedExpression",
    "AffineForm",
    "FormulaCompiler",
    "StringEncoder",
]

#: The big-M constant; must dominate every attribute-value difference.
#: Kept moderate so LP feasibility tolerances (absolute, ~1e-9 after our
#: tightened HiGHS options) stay far below the strictness margin.
BIG_M = 1e6
#: Strictness margin for < and > (values in workloads are integral or
#: low-precision decimals, so 1e-3 separates distinct values safely).
EPSILON = 1e-3
#: Range of the continuous variable a conditional's value is bound to.
_VALUE_BOUND = BIG_M / 4.0


class UnsupportedExpression(Exception):
    """The expression cannot be encoded as a linear program."""


class StringEncoder:
    """Bijective encoding of string constants to integer codes.

    Codes start at 1 and are spaced by 1; variables over strings are
    continuous, so only equality/inequality against encoded constants is
    meaningful — which matches how the workloads use categorical columns.
    """

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}

    def encode(self, value: str) -> int:
        if value not in self._codes:
            self._codes[value] = len(self._codes) + 1
        return self._codes[value]

    def decode(self, code: int) -> str | None:
        for value, existing in self._codes.items():
            if existing == code:
                return value
        return None

    def known_strings(self) -> list[str]:
        return sorted(self._codes, key=self._codes.get)  # type: ignore[arg-type]


@dataclass
class AffineForm:
    """An affine numeric expression ``sum(coef_i * var_i) + constant``."""

    coefficients: dict[str, float] = field(default_factory=dict)
    constant: float = 0.0

    @classmethod
    def const(cls, value: float) -> "AffineForm":
        return cls({}, float(value))

    @classmethod
    def variable(cls, name: str) -> "AffineForm":
        return cls({name: 1.0}, 0.0)

    def is_constant(self) -> bool:
        return not self.coefficients

    def scaled(self, factor: float) -> "AffineForm":
        return AffineForm(
            {n: c * factor for n, c in self.coefficients.items()},
            self.constant * factor,
        )

    def plus(self, other: "AffineForm") -> "AffineForm":
        coefficients = dict(self.coefficients)
        for name, coef in other.coefficients.items():
            coefficients[name] = coefficients.get(name, 0.0) + coef
        return AffineForm(coefficients, self.constant + other.constant)

    def minus(self, other: "AffineForm") -> "AffineForm":
        return self.plus(other.scaled(-1.0))


class FormulaCompiler:
    """Compiles one formula (plus assertions) into a single MILP.

    A compiler instance accumulates state: a shared string encoder, the
    model, and a cache so common sub-expressions compile once.  Typical use::

        compiler = FormulaCompiler()
        compiler.assert_condition(formula)      # require formula == true
        result = solve(compiler.model)          # branch & bound
    """

    def __init__(self) -> None:
        self.model = MILPModel()
        self.encoder = StringEncoder()
        self._bool_cache: dict[Expr, str] = {}

    # -- public API --------------------------------------------------------
    def assert_condition(self, condition: Expr) -> None:
        """Add the requirement that ``condition`` evaluates to true."""
        b = self.compile_boolean(condition)
        self.model.fix_variable(b, 1.0)

    def assert_negation(self, condition: Expr) -> None:
        """Add the requirement that ``condition`` evaluates to false."""
        b = self.compile_boolean(condition)
        self.model.fix_variable(b, 0.0)

    def decode_assignment(
        self, assignment: Mapping[str, float]
    ) -> dict[str, Any]:
        """Map solver values back to attribute values (strings decoded when
        a value is within rounding distance of a known code)."""
        decoded: dict[str, Any] = {}
        for name, value in assignment.items():
            string = self.encoder.decode(round(value)) if abs(
                value - round(value)
            ) < 1e-6 else None
            decoded[name] = string if string is not None else value
        return decoded

    # -- numeric compilation ---------------------------------------------
    def compile_numeric(self, expr: Expr) -> AffineForm:
        """Compile a numeric expression to an affine form, introducing
        auxiliary variables for conditionals."""
        if isinstance(expr, Const):
            return AffineForm.const(self._encode_constant(expr.value))
        if isinstance(expr, (Attr, Var)):
            name = self._value_var(expr)
            return AffineForm.variable(name)
        if isinstance(expr, Arith):
            left = self.compile_numeric(expr.left)
            right = self.compile_numeric(expr.right)
            if expr.op == "+":
                return left.plus(right)
            if expr.op == "-":
                return left.minus(right)
            if expr.op == "*":
                if right.is_constant():
                    return left.scaled(right.constant)
                if left.is_constant():
                    return right.scaled(left.constant)
                raise UnsupportedExpression(
                    "product of two non-constant expressions is not linear"
                )
            if expr.op == "/":
                if right.is_constant():
                    if right.constant == 0:
                        raise UnsupportedExpression("division by zero")
                    return left.scaled(1.0 / right.constant)
                raise UnsupportedExpression(
                    "division by a non-constant expression is not linear"
                )
        if isinstance(expr, If):
            return self._compile_conditional_value(expr)
        raise UnsupportedExpression(f"cannot compile {expr!r} as a value")

    def _encode_constant(self, value: Any) -> float:
        if value is None:
            raise UnsupportedExpression("NULL constants are not encodable")
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        if isinstance(value, str):
            return float(self.encoder.encode(value))
        return float(value)

    def _value_var(self, expr: Attr | Var) -> str:
        prefix = "attr" if isinstance(expr, Attr) else "sym"
        name = f"{prefix}::{expr.name}"
        self.model.add_variable(
            name, "continuous", -_VALUE_BOUND, _VALUE_BOUND
        )
        return name

    def _compile_conditional_value(self, expr: If) -> AffineForm:
        """``if c then e1 else e2`` via big-M branch selection.

        Introduces ``v`` with ``v = e1`` when ``b_c = 1`` and ``v = e2``
        when ``b_c = 0`` (four big-M rows, the compact equivalent of the
        eight rows shown in Figure 13).
        """
        b = self.compile_boolean(expr.cond)
        then_form = self.compile_numeric(expr.then)
        else_form = self.compile_numeric(expr.orelse)
        v = self.model.add_continuous("vif", -_VALUE_BOUND, _VALUE_BOUND)
        # v - then <= M(1-b)        v - then >= -M(1-b)
        self._add_affine_constraint(
            AffineForm.variable(v.name).minus(then_form),
            {b: BIG_M},
            "<=",
            BIG_M,
        )
        self._add_affine_constraint(
            AffineForm.variable(v.name).minus(then_form),
            {b: -BIG_M},
            ">=",
            -BIG_M,
        )
        # v - else <= M*b           v - else >= -M*b
        self._add_affine_constraint(
            AffineForm.variable(v.name).minus(else_form),
            {b: -BIG_M},
            "<=",
            0.0,
        )
        self._add_affine_constraint(
            AffineForm.variable(v.name).minus(else_form),
            {b: BIG_M},
            ">=",
            0.0,
        )
        return AffineForm.variable(v.name)

    def _add_affine_constraint(
        self,
        form: AffineForm,
        extra: Mapping[str, float],
        sense: str,
        rhs: float,
    ) -> None:
        """Add ``form + extra <sense> rhs`` moving form.constant to the RHS."""
        coefficients = dict(form.coefficients)
        for name, coef in extra.items():
            coefficients[name] = coefficients.get(name, 0.0) + coef
        self.model.add_constraint(coefficients, sense, rhs - form.constant)

    # -- boolean compilation ---------------------------------------------
    def compile_boolean(self, expr: Expr) -> str:
        """Compile a condition to a binary variable name whose value in any
        model solution equals the condition's truth value."""
        cached = self._bool_cache.get(expr)
        if cached is not None:
            return cached
        name = self._compile_boolean_uncached(expr)
        self._bool_cache[expr] = name
        return name

    def _compile_boolean_uncached(self, expr: Expr) -> str:
        if isinstance(expr, Const):
            if not isinstance(expr.value, bool):
                raise UnsupportedExpression(
                    f"constant {expr.value!r} used as a condition"
                )
            b = self.model.add_binary("bconst")
            self.model.fix_variable(b.name, 1.0 if expr.value else 0.0)
            return b.name
        if isinstance(expr, Cmp):
            return self._compile_comparison(expr)
        if isinstance(expr, Logic):
            b1 = self.compile_boolean(expr.left)
            b2 = self.compile_boolean(expr.right)
            b = self.model.add_binary("blogic")
            if expr.op == "and":
                # b1 + b2 - 2b - 1 <= 0   and   b1 + b2 - 2b >= 0
                self.model.add_constraint(
                    {b1: 1, b2: 1, b.name: -2}, "<=", 1.0
                )
                self.model.add_constraint(
                    {b1: 1, b2: 1, b.name: -2}, ">=", 0.0
                )
            else:  # or
                # b1 + b2 - 2b <= 0   and   b1 + b2 - b >= 0
                self.model.add_constraint(
                    {b1: 1, b2: 1, b.name: -2}, "<=", 0.0
                )
                self.model.add_constraint(
                    {b1: 1, b2: 1, b.name: -1}, ">=", 0.0
                )
            return b.name
        if isinstance(expr, Not):
            b1 = self.compile_boolean(expr.operand)
            b = self.model.add_binary("bnot")
            self.model.add_constraint({b.name: 1, b1: 1}, "=", 1.0)
            return b.name
        if isinstance(expr, If):
            # boolean-valued conditional: (c and then) or (not c and else)
            rewritten = Logic(
                "or",
                Logic("and", expr.cond, expr.then),
                Logic("and", Not(expr.cond), expr.orelse),
            )
            return self.compile_boolean(rewritten)
        if isinstance(expr, IsNull):
            raise UnsupportedExpression(
                "IS NULL over symbolic values is not supported"
            )
        if isinstance(expr, (Attr, Var)):
            raise UnsupportedExpression(
                f"bare reference {expr!r} used as a condition"
            )
        raise UnsupportedExpression(f"cannot compile condition {expr!r}")

    def _compile_comparison(self, expr: Cmp) -> str:
        left = self.compile_numeric(expr.left)
        right = self.compile_numeric(expr.right)
        if expr.op == "<":
            return self._strict_less(left, right)
        if expr.op == ">":
            return self._strict_less(right, left)
        if expr.op == "<=":
            return self._less_equal(left, right)
        if expr.op == ">=":
            return self._less_equal(right, left)
        if expr.op == "=":
            b_le = self._less_equal(left, right)
            b_ge = self._less_equal(right, left)
            b = self.model.add_binary("beq")
            self.model.add_constraint({b_le: 1, b_ge: 1, b.name: -2}, "<=", 1.0)
            self.model.add_constraint({b_le: 1, b_ge: 1, b.name: -2}, ">=", 0.0)
            return b.name
        # != is the negation of =
        b_eq = self.compile_boolean(Cmp("=", expr.left, expr.right))
        b = self.model.add_binary("bneq")
        self.model.add_constraint({b.name: 1, b_eq: 1}, "=", 1.0)
        return b.name

    def _strict_less(self, left: AffineForm, right: AffineForm) -> str:
        """Figure 13 rule for ``e1 < e2``."""
        b = self.model.add_binary("blt")
        diff = left.minus(right)  # v1 - v2
        # v1 - v2 + b*M >= 0  (b=0 -> v1 >= v2)
        self._add_affine_constraint(diff, {b.name: BIG_M}, ">=", 0.0)
        # v2 - v1 + (1-b)*M >= eps  (b=1 -> v2 - v1 >= eps)
        self._add_affine_constraint(
            diff.scaled(-1.0), {b.name: -BIG_M}, ">=", EPSILON - BIG_M
        )
        return b.name

    def _less_equal(self, left: AffineForm, right: AffineForm) -> str:
        """Figure 13 rule for ``e1 <= e2``."""
        b = self.model.add_binary("ble")
        diff = left.minus(right)
        # v1 - v2 + b*M >= eps  (b=0 -> v1 - v2 >= eps, i.e. v1 > v2)
        self._add_affine_constraint(diff, {b.name: BIG_M}, ">=", EPSILON)
        # v2 - v1 + (1-b)*M >= 0  (b=1 -> v2 >= v1)
        self._add_affine_constraint(
            diff.scaled(-1.0), {b.name: -BIG_M}, ">=", -BIG_M
        )
        return b.name


def formula_uses_strings(formula: Expr) -> bool:
    """True when any constant in the formula is a string (drives the
    categorical-encoding path in diagnostics)."""
    return any(
        isinstance(node, Const) and isinstance(node.value, str)
        for node in walk(formula)
    )
