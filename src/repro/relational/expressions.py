"""Expression and condition language of the paper (Figure 7).

The grammar is::

    e   := v | c | e {+, -, *, /} e | if phi then e else e
    phi := e {=, !=, <, <=, >, >=} e | phi {and, or} phi
         | e isnull | not phi | true | false

where ``v`` is a variable (an attribute reference or, during symbolic
execution, a symbolic variable) and ``c`` is a constant.  Expressions are
immutable dataclass trees; every analysis in the library (reenactment,
data-slicing pushdown, symbolic execution, the solver) walks these
trees.

Values are Python ``None`` (SQL NULL), ``bool``, ``int``, ``float`` and
``str``.  Comparisons and arithmetic involving NULL evaluate to
``False``/``None`` respectively (two-valued logic; the paper's grammar does
not define 3VL, see DESIGN.md note 5).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, TypeGuard

__all__ = [
    "Expr",
    "Const",
    "Attr",
    "Var",
    "Arith",
    "Cmp",
    "Logic",
    "Not",
    "IsNull",
    "If",
    "TRUE",
    "FALSE",
    "NULL",
    "and_",
    "or_",
    "not_",
    "eq",
    "neq",
    "lt",
    "le",
    "gt",
    "ge",
    "add",
    "sub",
    "mul",
    "div",
    "if_",
    "col",
    "lit",
    "evaluate",
    "substitute",
    "attributes_of",
    "variables_of",
    "rename_attributes",
    "simplify",
    "is_condition",
    "conjuncts_of",
    "disjuncts_of",
    "expr_size",
    "EvaluationError",
]


class EvaluationError(Exception):
    """Raised when an expression cannot be evaluated over a tuple."""


class Expr:
    """Base class for all expression nodes.

    Subclasses are frozen dataclasses, so expressions are hashable and can
    be shared freely between queries, histories and symbolic states.
    """

    # -- convenience operator overloads (build new AST nodes) -------------
    def __add__(self, other: "Expr | Any") -> "Arith":
        return Arith("+", self, _wrap(other))

    def __radd__(self, other: Any) -> "Arith":
        return Arith("+", _wrap(other), self)

    def __sub__(self, other: "Expr | Any") -> "Arith":
        return Arith("-", self, _wrap(other))

    def __rsub__(self, other: Any) -> "Arith":
        return Arith("-", _wrap(other), self)

    def __mul__(self, other: "Expr | Any") -> "Arith":
        return Arith("*", self, _wrap(other))

    def __rmul__(self, other: Any) -> "Arith":
        return Arith("*", _wrap(other), self)

    def __truediv__(self, other: "Expr | Any") -> "Arith":
        return Arith("/", self, _wrap(other))

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return to_string(self)


def _wrap(value: Any) -> Expr:
    """Lift a plain Python value into a :class:`Const` node."""
    if isinstance(value, Expr):
        return value
    return Const(value)


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant (``c`` in the grammar)."""

    value: Any

    def __post_init__(self) -> None:
        if isinstance(self.value, Expr):
            raise TypeError("Const cannot wrap another expression")


@dataclass(frozen=True)
class Attr(Expr):
    """A reference to an attribute of the input tuple (``v``)."""

    name: str


@dataclass(frozen=True)
class Var(Expr):
    """A symbolic variable, used by VC-tables and the solver.

    Distinct from :class:`Attr` so that symbolic states can mix attribute
    references (not yet bound) with solver variables (bound by the global
    condition).
    """

    name: str


@dataclass(frozen=True)
class Arith(Expr):
    """Binary arithmetic ``e {+, -, *, /} e``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown arithmetic operator {self.op!r}")


@dataclass(frozen=True)
class Cmp(Expr):
    """Comparison ``e {=, !=, <, <=, >, >=} e`` (a condition)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("=", "!=", "<", "<=", ">", ">="):
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class Logic(Expr):
    """Boolean connective ``phi {and, or} phi``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise ValueError(f"unknown logic operator {self.op!r}")


@dataclass(frozen=True)
class Not(Expr):
    """Negation ``not phi``."""

    operand: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    """NULL test ``e isnull``."""

    operand: Expr


@dataclass(frozen=True)
class If(Expr):
    """Conditional expression ``if phi then e else e``."""

    cond: Expr
    then: Expr
    orelse: Expr


TRUE = Const(True)
FALSE = Const(False)
NULL = Const(None)


# -- constructor helpers ---------------------------------------------------

def col(name: str) -> Attr:
    """Shorthand for an attribute reference."""
    return Attr(name)


def lit(value: Any) -> Const:
    """Shorthand for a constant."""
    return Const(value)


def and_(*conds: Expr) -> Expr:
    """N-ary conjunction; ``and_()`` is ``TRUE``."""
    conds = tuple(_wrap(c) for c in conds)
    if not conds:
        return TRUE
    result = conds[0]
    for c in conds[1:]:
        result = Logic("and", result, c)
    return result


def or_(*conds: Expr) -> Expr:
    """N-ary disjunction; ``or_()`` is ``FALSE``."""
    conds = tuple(_wrap(c) for c in conds)
    if not conds:
        return FALSE
    result = conds[0]
    for c in conds[1:]:
        result = Logic("or", result, c)
    return result


def not_(cond: Expr) -> Not:
    return Not(_wrap(cond))


def eq(left: Any, right: Any) -> Cmp:
    return Cmp("=", _wrap(left), _wrap(right))


def neq(left: Any, right: Any) -> Cmp:
    return Cmp("!=", _wrap(left), _wrap(right))


def lt(left: Any, right: Any) -> Cmp:
    return Cmp("<", _wrap(left), _wrap(right))


def le(left: Any, right: Any) -> Cmp:
    return Cmp("<=", _wrap(left), _wrap(right))


def gt(left: Any, right: Any) -> Cmp:
    return Cmp(">", _wrap(left), _wrap(right))


def ge(left: Any, right: Any) -> Cmp:
    return Cmp(">=", _wrap(left), _wrap(right))


def add(left: Any, right: Any) -> Arith:
    return Arith("+", _wrap(left), _wrap(right))


def sub(left: Any, right: Any) -> Arith:
    return Arith("-", _wrap(left), _wrap(right))


def mul(left: Any, right: Any) -> Arith:
    return Arith("*", _wrap(left), _wrap(right))


def div(left: Any, right: Any) -> Arith:
    return Arith("/", _wrap(left), _wrap(right))


def if_(cond: Any, then: Any, orelse: Any) -> If:
    return If(_wrap(cond), _wrap(then), _wrap(orelse))


# -- evaluation ------------------------------------------------------------

_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def evaluate(expr: Expr, binding: Mapping[str, Any] | None = None) -> Any:
    """Evaluate ``expr`` over a tuple given as attribute->value mapping.

    Both :class:`Attr` and :class:`Var` nodes are looked up in ``binding``.
    NULL propagates through arithmetic and makes comparisons false
    (two-valued logic, see module docstring).
    """
    binding = binding or {}
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, (Attr, Var)):
        try:
            return binding[expr.name]
        except KeyError:
            raise EvaluationError(f"unbound reference {expr.name!r}") from None
    if isinstance(expr, Arith):
        left = evaluate(expr.left, binding)
        right = evaluate(expr.right, binding)
        if left is None or right is None:
            return None
        if expr.op == "/" and right == 0:
            return None
        return _ARITH_OPS[expr.op](left, right)
    if isinstance(expr, Cmp):
        left = evaluate(expr.left, binding)
        right = evaluate(expr.right, binding)
        if left is None or right is None:
            return False
        try:
            return bool(_CMP_OPS[expr.op](left, right))
        except TypeError:
            raise EvaluationError(
                f"cannot compare {left!r} and {right!r} with {expr.op}"
            ) from None
    if isinstance(expr, Logic):
        left = bool(evaluate(expr.left, binding))
        if expr.op == "and":
            return left and bool(evaluate(expr.right, binding))
        return left or bool(evaluate(expr.right, binding))
    if isinstance(expr, Not):
        return not bool(evaluate(expr.operand, binding))
    if isinstance(expr, IsNull):
        return evaluate(expr.operand, binding) is None
    if isinstance(expr, If):
        if bool(evaluate(expr.cond, binding)):
            return evaluate(expr.then, binding)
        return evaluate(expr.orelse, binding)
    raise EvaluationError(f"cannot evaluate {expr!r}")


# -- structural walks ------------------------------------------------------

def children_of(expr: Expr) -> tuple[Expr, ...]:
    """Direct sub-expressions of a node."""
    if isinstance(expr, (Arith, Cmp, Logic)):
        return (expr.left, expr.right)
    if isinstance(expr, (Not, IsNull)):
        return (expr.operand,)
    if isinstance(expr, If):
        return (expr.cond, expr.then, expr.orelse)
    return ()


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield every node of the expression tree (pre-order)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children_of(node))


def attributes_of(expr: Expr) -> set[str]:
    """Names of all :class:`Attr` references in the expression."""
    return {node.name for node in walk(expr) if isinstance(node, Attr)}


def variables_of(expr: Expr) -> set[str]:
    """Names of all :class:`Var` references in the expression."""
    return {node.name for node in walk(expr) if isinstance(node, Var)}


def expr_size(expr: Expr) -> int:
    """Number of nodes in the expression tree."""
    return sum(1 for _ in walk(expr))


def _rebuild(expr: Expr, children: tuple[Expr, ...]) -> Expr:
    """Reconstruct a node of the same type with new children."""
    if isinstance(expr, Arith):
        return Arith(expr.op, children[0], children[1])
    if isinstance(expr, Cmp):
        return Cmp(expr.op, children[0], children[1])
    if isinstance(expr, Logic):
        return Logic(expr.op, children[0], children[1])
    if isinstance(expr, Not):
        return Not(children[0])
    if isinstance(expr, IsNull):
        return IsNull(children[0])
    if isinstance(expr, If):
        return If(children[0], children[1], children[2])
    return expr


def transform(expr: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """Bottom-up rewrite: apply ``fn`` to each node after rewriting its
    children; ``fn`` returns a replacement node or ``None`` to keep it.
    A node whose children all come back as the same objects is kept as
    the same object."""
    children = children_of(expr)
    if children:
        new_children = tuple([transform(c, fn) for c in children])
        if any(map(operator.is_not, new_children, children)):
            expr = _rebuild(expr, new_children)
    replacement = fn(expr)
    return expr if replacement is None else replacement


def substitute(expr: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Return ``expr`` with each occurrence of a key replaced by its value
    (the paper's ``e[e' <- e'']``).  Keys are matched structurally; matches
    are not rewritten further (substitution is simultaneous, not iterated).
    """
    if not mapping:
        return expr

    def visit(node: Expr) -> Expr:
        if node in mapping:
            return mapping[node]
        children = children_of(node)
        if not children:
            return node
        new_children = tuple(visit(c) for c in children)
        if new_children == children:
            return node
        return _rebuild(node, new_children)

    return visit(expr)


def substitute_named(
    expr: Expr,
    kind: type[Attr] | type[Var],
    mapping: Mapping[str, Expr],
    rule: Callable[[Expr], Expr | None] | None = None,
) -> Expr:
    """Replace the ``kind`` leaves named in ``mapping``, simultaneously.

    The one walk under :func:`substitute_attributes`,
    :func:`substitute_variables` and the optimizer's composition: leaves
    are matched *by name* (a dictionary probe per leaf; nothing is
    hashed structurally), replacements are not rewritten further, and a
    subtree without a match comes back as the same object.

    ``rule``, when given, is applied to each node that had to be rebuilt
    — children first, ``None`` keeps the node — and to no other.  With
    ``rule=_simplify_node``, a simplified ``expr`` and simplified
    replacements, the result equals ``simplify(substitute(...))``: the
    untouched subtrees are fixpoints already, and the rebuilt nodes get
    the one bottom-up pass :func:`simplify`'s invariant says is enough.
    """
    if not mapping:
        return expr

    def visit(node: Expr) -> Expr:
        if isinstance(node, kind):
            return mapping.get(node.name, node)
        children = children_of(node)
        if not children:
            return node
        replaced = tuple(map(visit, children))
        if not any(map(operator.is_not, replaced, children)):
            return node
        node = _rebuild(node, replaced)
        if rule is not None:
            simpler = rule(node)
            if simpler is not None:
                return simpler
        return node

    return visit(expr)


def substitute_attributes(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace attribute references by name: ``e[A_i <- e_i]`` for all i.

    This is the substitution used by data-slicing pushdown (Section 6) and
    symbolic execution: all replacements happen simultaneously over the
    *original* expression.  A :class:`Var` of the same name is left alone.
    """
    return substitute_named(expr, Attr, mapping)


def substitute_variables(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace :class:`Var` references by name (simultaneous); an
    :class:`Attr` of the same name is left alone."""
    return substitute_named(expr, Var, mapping)


def rename_attributes(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    """Rename attribute references (used when pushing conditions through
    unions with differing schemas: ``theta[Sch(Q1) <- Sch(Q2)]``)."""
    return substitute_attributes(
        expr, {old: Attr(new) for old, new in mapping.items()}
    )


# -- simplification --------------------------------------------------------

def _is_const(expr: Expr) -> TypeGuard[Const]:
    return isinstance(expr, Const)


def _simplify_node(expr: Expr) -> Expr | None:
    """One local simplification step; assumes children already simplified.

    Implements constant folding plus the usual boolean absorption laws
    (``x and true = x`` etc.) and conditional folding.  The commutativity /
    associativity equivalences of Figure 8 are used only for canonical
    ordering of constant operands so folding fires more often.
    """
    if isinstance(expr, Arith):
        if _is_const(expr.left) and _is_const(expr.right):
            return Const(evaluate(expr))
        # x + 0, x - 0, x * 1, x / 1 -> x.  (x * 0 -> 0 would be unsound:
        # NULL * 0 is NULL, not 0 — caught by the differential fuzzer.)
        if isinstance(expr.right, Const):
            rv = expr.right.value
            if expr.op in ("+", "-") and rv == 0 and not isinstance(rv, bool):
                return expr.left
            if expr.op in ("*", "/") and rv == 1:
                return expr.left
        if isinstance(expr.left, Const):
            lv = expr.left.value
            if expr.op == "+" and lv == 0 and not isinstance(lv, bool):
                return expr.right
            if expr.op == "*" and lv == 1:
                return expr.right
        return None
    if isinstance(expr, Cmp):
        if _is_const(expr.left) and _is_const(expr.right):
            return Const(evaluate(expr))
        # Reflexive comparisons: x = x may NOT fold to TRUE — a NULL
        # operand makes every comparison false under the two-valued
        # logic (caught by the differential fuzzer: a reenacted
        # DELETE WHERE c = c must keep NULL rows, like NAIVE does).
        # The FALSE folds stay: x != x / x < x are false for NULL
        # operands too.  (NaN operands would flip x != x, but NaN has
        # no literal in the language and the sqlite backend rejects it.)
        if expr.left == expr.right and expr.op in ("!=", "<", ">"):
            return FALSE
        return None
    if isinstance(expr, Logic):
        left, right = expr.left, expr.right
        if expr.op == "and":
            if left == FALSE or right == FALSE:
                return FALSE
            if left == TRUE:
                return right
            if right == TRUE:
                return left
            if left == right:
                return left
        else:  # or
            if left == TRUE or right == TRUE:
                return TRUE
            if left == FALSE:
                return right
            if right == FALSE:
                return left
            if left == right:
                return left
        return None
    if isinstance(expr, Not):
        if _is_const(expr.operand):
            return Const(not bool(expr.operand.value))
        if isinstance(expr.operand, Not):
            return expr.operand.operand
        # NOT (a op b) must NOT rewrite to the flipped comparison: under
        # the two-valued logic a NULL operand makes every comparison
        # false, so NOT (a = b) is *true* for NULLs while a != b is
        # *false* (fuzzer regression — the rewrite broke reenacted
        # deletes over NULL rows).
        return None
    if isinstance(expr, IsNull):
        if _is_const(expr.operand):
            return Const(expr.operand.value is None)
        return None
    if isinstance(expr, If):
        if expr.cond == TRUE:
            return expr.then
        if expr.cond == FALSE:
            return expr.orelse
        if expr.then == expr.orelse:
            return expr.then
        return None
    return None


def simplify(expr: Expr) -> Expr:
    """Simplify an expression to a fixpoint of the local rules.

    One bottom-up pass is the fixpoint.  *Invariant:* every replacement
    :func:`_simplify_node` returns is a :class:`Const` or a node the pass
    has already returned — a child, or the operand of a ``Not`` child.
    By induction every node the pass returns is one a second pass keeps:
    a leaf, a node whose children it keeps and on which no rule fires,
    or such a replacement.  So ``simplify(simplify(e)) is simplify(e)``,
    and an expression no rule applies to comes back as the same object.
    """
    return transform(expr, _simplify_node)


def is_condition(expr: Expr) -> bool:
    """Heuristic check that an expression is boolean-valued (a ``phi``)."""
    if isinstance(expr, (Cmp, Logic, Not, IsNull)):
        return True
    if isinstance(expr, Const):
        return isinstance(expr.value, bool)
    if isinstance(expr, If):
        return is_condition(expr.then) and is_condition(expr.orelse)
    return False


def conjuncts_of(expr: Expr) -> list[Expr]:
    """Flatten a conjunction into its top-level conjuncts."""
    if isinstance(expr, Logic) and expr.op == "and":
        return conjuncts_of(expr.left) + conjuncts_of(expr.right)
    return [expr]


def disjuncts_of(expr: Expr) -> list[Expr]:
    """Flatten a disjunction into its top-level disjuncts."""
    if isinstance(expr, Logic) and expr.op == "or":
        return disjuncts_of(expr.left) + disjuncts_of(expr.right)
    return [expr]


# -- rendering -------------------------------------------------------------

def to_string(expr: Expr) -> str:
    """Render an expression in the paper's SQL-ish surface syntax."""
    if isinstance(expr, Const):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, str):
            escaped = expr.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(expr.value, float):
            # repr('inf')/'nan' would tokenize as attribute names; render
            # parseable overflow literals instead (NaN stays semantic
            # only: it can never compare equal to itself anyway).
            if expr.value == float("inf"):
                return "9e999"
            if expr.value == float("-inf"):
                return "-9e999"
            if expr.value != expr.value:
                return "(9e999 - 9e999)"
        return repr(expr.value)
    if isinstance(expr, Attr):
        return expr.name
    if isinstance(expr, Var):
        return f"${expr.name}"
    if isinstance(expr, Arith):
        return f"({to_string(expr.left)} {expr.op} {to_string(expr.right)})"
    if isinstance(expr, Cmp):
        op = "<>" if expr.op == "!=" else expr.op
        return f"({to_string(expr.left)} {op} {to_string(expr.right)})"
    if isinstance(expr, Logic):
        op = expr.op.upper()
        return f"({to_string(expr.left)} {op} {to_string(expr.right)})"
    if isinstance(expr, Not):
        return f"(NOT {to_string(expr.operand)})"
    if isinstance(expr, IsNull):
        return f"({to_string(expr.operand)} IS NULL)"
    if isinstance(expr, If):
        return (
            f"CASE WHEN {to_string(expr.cond)} THEN {to_string(expr.then)} "
            f"ELSE {to_string(expr.orelse)} END"
        )
    raise TypeError(f"cannot render {expr!r}")
