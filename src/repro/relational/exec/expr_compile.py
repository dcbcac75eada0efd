"""Closure compilation of the expression language (Figure 7).

:func:`compile_expr` lowers an :class:`~repro.relational.expressions.Expr`
tree into a single generated Python function over a *positional* row
tuple: attribute references become ``row[i]`` loads, so evaluation needs
neither a per-row ``dict`` binding nor a tree walk.  The generated code
preserves the interpreter's semantics exactly:

* NULL (``None``) propagates through arithmetic; division by zero yields
  NULL,
* comparisons involving NULL are ``False`` (the two-valued logic of the
  module docstring of :mod:`repro.relational.expressions`); incomparable
  values raise :class:`EvaluationError`,
* ``and``/``or`` short-circuit exactly like the interpreter (the right
  operand is not evaluated when the left decides), and ``If`` evaluates
  only the taken branch — so an unbound reference in a dead branch does
  not raise, again matching the interpreter,
* unbound :class:`Attr`/:class:`Var` references raise
  :class:`EvaluationError` lazily, at the point they would be read.

Compilation is cached on ``(expr, schema)``; expression trees are frozen
dataclasses so structurally equal trees share one compiled closure.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Sequence

from ..algebra import (
    Join,
    Operator,
    Project,
    Select,
    Singleton,
    walk_operators,
)
from ..expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    EvaluationError,
    Expr,
    If,
    IsNull,
    Logic,
    Not,
    Var,
    walk,
)
from ..schema import Schema

__all__ = [
    "compile_expr",
    "compile_predicate",
    "compile_row",
    "const_fingerprint",
    "plan_fingerprint",
    "clear_expr_cache",
    "expr_cache_info",
]


def const_fingerprint(expr: Expr) -> tuple[str, ...]:
    """Types of every constant embedded in the tree, in walk order.

    Required in every compilation cache key: ``Const(False) == Const(0)``
    and ``Const(1) == Const(True) == Const(1.0)`` under dataclass
    equality (Python's cross-type numeric ``==``), yet they must compile
    to closures producing differently-typed values.  Two trees that
    compare equal have structurally aligned walks, so equal fingerprints
    really mean interchangeable compilations.
    """
    return tuple(
        type(node.value).__name__
        for node in walk(expr)
        if isinstance(node, Const)
    )


def plan_fingerprint(op: Operator) -> tuple[str, ...]:
    """:func:`const_fingerprint` of a whole operator tree: the types of
    every constant it embeds, ``Singleton`` rows included, in walk
    order — ``(1,) == (True,)``, so a key on the tree must carry them."""
    parts: list[str] = []
    for node in walk_operators(op):
        if isinstance(node, Singleton):
            parts.extend(type(value).__name__ for value in node.row)
        elif isinstance(node, (Select, Join)):
            parts.extend(const_fingerprint(node.condition))
        elif isinstance(node, Project):
            for expr, _ in node.outputs:
                parts.extend(const_fingerprint(expr))
    return tuple(parts)


#: Operator spellings in generated code.
_ARITH_SOURCE = {"+": "+", "-": "-", "*": "*", "/": "/"}
_CMP_SOURCE = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _raise_unbound(name: str) -> Any:
    raise EvaluationError(f"unbound reference {name!r}")


def _cmp_message(a: Any, b: Any, op: str) -> str:
    """Built at runtime — embedding operand reprs in the generated
    source would produce invalid nesting for quoted/escaped strings."""
    return f"cannot compare {a!r} and {b!r} with {op}"


#: Atoms whose runtime value might be None: row loads, temps, env consts.
_MAYBE_NONE_ATOM = re.compile(r"^(?:row\[\d+\]|[tk]\d+)$")


def _maybe_none(atom: str) -> bool:
    """Whether an atom could evaluate to None (inlined non-None literals
    can't, so their NULL guards are dropped from the generated code)."""
    return atom == "None" or bool(_MAYBE_NONE_ATOM.match(atom))


class _Emitter:
    """Accumulates the statement body of one generated row function."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.lines: list[str] = []
        self.env: dict[str, Any] = {
            "EvaluationError": EvaluationError,
            "_unbound": _raise_unbound,
            "_cmp_msg": _cmp_message,
        }
        self._counter = 0

    # -- low-level helpers -------------------------------------------------
    def fresh(self) -> str:
        self._counter += 1
        return f"t{self._counter}"

    def bind(self, value: Any) -> str:
        """Bind an arbitrary constant into the function's globals."""
        self._counter += 1
        name = f"k{self._counter}"
        self.env[name] = value
        return name

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def _literal(self, value: Any) -> str:
        """Inline representation for simple constants, env binding else."""
        if value is None or isinstance(value, (bool, int, str)):
            return repr(value)
        if isinstance(value, float) and -1e308 < value < 1e308:
            return repr(value)  # finite floats round-trip through repr
        return self.bind(value)

    # -- the lowering ------------------------------------------------------
    def lower(self, expr: Expr, depth: int) -> str:
        """Emit code computing ``expr``; returns the atom holding it.

        The returned atom is a variable name, a ``row[i]`` load, or a
        literal — always side-effect free, so it may be referenced more
        than once (e.g. in a NULL guard and the operation itself).
        """
        if isinstance(expr, Const):
            return self._literal(expr.value)
        if isinstance(expr, (Attr, Var)):
            name = expr.name
            if name in self.schema:
                return f"row[{self.schema.index_of(name)}]"
            # Lazy failure: only raises when this node is actually read,
            # matching the interpreter's KeyError-at-lookup behaviour.
            out = self.fresh()
            self.line(depth, f"{out} = _unbound({self._literal(name)})")
            return out
        if isinstance(expr, Arith):
            a = self.lower(expr.left, depth)
            b = self.lower(expr.right, depth)
            out = self.fresh()
            if a == "None" or b == "None":
                self.line(depth, f"{out} = None")
                return out
            guards = [f"{x} is None" for x in (a, b) if _maybe_none(x)]
            if expr.op == "/":
                guards.append(f"{b} == 0")
            op = _ARITH_SOURCE[expr.op]
            if guards:
                self.line(
                    depth,
                    f"{out} = None if {' or '.join(guards)} "
                    f"else {a} {op} {b}",
                )
            else:
                self.line(depth, f"{out} = {a} {op} {b}")
            return out
        if isinstance(expr, Cmp):
            a = self.lower(expr.left, depth)
            b = self.lower(expr.right, depth)
            out = self.fresh()
            if a == "None" or b == "None":
                self.line(depth, f"{out} = False")
                return out
            op = _CMP_SOURCE[expr.op]
            guards = [f"{x} is None" for x in (a, b) if _maybe_none(x)]
            body_depth = depth
            if guards:
                self.line(depth, f"if {' or '.join(guards)}:")
                self.line(depth + 1, f"{out} = False")
                self.line(depth, "else:")
                body_depth = depth + 1
            self.line(body_depth, "try:")
            self.line(body_depth + 1, f"{out} = not not ({a} {op} {b})")
            self.line(body_depth, "except TypeError:")
            self.line(
                body_depth + 1,
                f"raise EvaluationError(_cmp_msg({a}, {b}, '{expr.op}')) "
                "from None",
            )
            return out
        if isinstance(expr, Logic):
            a = self.lower(expr.left, depth)
            out = self.fresh()
            self.line(depth, f"{out} = not not {a}")
            guard = out if expr.op == "and" else f"not {out}"
            self.line(depth, f"if {guard}:")
            b = self.lower(expr.right, depth + 1)
            self.line(depth + 1, f"{out} = not not {b}")
            return out
        if isinstance(expr, Not):
            a = self.lower(expr.operand, depth)
            out = self.fresh()
            self.line(depth, f"{out} = not {a}")
            return out
        if isinstance(expr, IsNull):
            a = self.lower(expr.operand, depth)
            out = self.fresh()
            if not _maybe_none(a):
                self.line(depth, f"{out} = {a == 'None'}")
            else:
                self.line(depth, f"{out} = {a} is None")
            return out
        if isinstance(expr, If):
            cond = self.lower(expr.cond, depth)
            out = self.fresh()
            self.line(depth, f"if {cond}:")
            then = self.lower(expr.then, depth + 1)
            self.line(depth + 1, f"{out} = {then}")
            self.line(depth, "else:")
            orelse = self.lower(expr.orelse, depth + 1)
            self.line(depth + 1, f"{out} = {orelse}")
            return out
        raise EvaluationError(f"cannot compile {expr!r}")

    def assemble(self, return_expr: str) -> Callable[[tuple], Any]:
        body = self.lines + [f"    return {return_expr}"]
        source = "def _compiled(row):\n" + "\n".join(body)
        code = compile(source, "<mahif-compiled-expr>", "exec")
        exec(code, self.env)
        fn = self.env["_compiled"]
        fn.__source__ = source  # for debugging / tests
        return fn


@lru_cache(maxsize=4096)
def _compile_expr_cached(
    expr: Expr, schema: Schema, fingerprint: tuple[str, ...]
) -> Callable[[tuple], Any]:
    emitter = _Emitter(schema)
    atom = emitter.lower(expr, 1)
    return emitter.assemble(atom)


@lru_cache(maxsize=4096)
def _compile_predicate_cached(
    expr: Expr, schema: Schema, fingerprint: tuple[str, ...]
) -> Callable[[tuple], bool]:
    emitter = _Emitter(schema)
    atom = emitter.lower(expr, 1)
    return emitter.assemble(f"not not {atom}")


@lru_cache(maxsize=4096)
def _compile_row_cached(
    exprs: tuple[Expr, ...], schema: Schema, fingerprint: tuple[str, ...]
) -> Callable[[tuple], tuple]:
    emitter = _Emitter(schema)
    atoms = [emitter.lower(expr, 1) for expr in exprs]
    return emitter.assemble("(" + ", ".join(atoms) + ("," if len(atoms) == 1 else "") + ")")


def compile_expr(expr: Expr, schema: Schema) -> Callable[[tuple], Any]:
    """Compile ``expr`` to ``row -> value`` over ``schema``-ordered rows."""
    try:
        return _compile_expr_cached(expr, schema, const_fingerprint(expr))
    except TypeError:  # unhashable constant somewhere in the tree
        emitter = _Emitter(schema)
        return emitter.assemble(emitter.lower(expr, 1))


def compile_predicate(expr: Expr, schema: Schema) -> Callable[[tuple], bool]:
    """Compile a condition to ``row -> bool`` (truthiness coerced, as the
    interpreter's callers do with ``bool(evaluate(...))``)."""
    try:
        return _compile_predicate_cached(
            expr, schema, const_fingerprint(expr)
        )
    except TypeError:
        emitter = _Emitter(schema)
        atom = emitter.lower(expr, 1)
        return emitter.assemble(f"not not {atom}")


def compile_row(
    exprs: Sequence[Expr], schema: Schema
) -> Callable[[tuple], tuple]:
    """Compile a projection list to one ``row -> tuple`` function.

    All output expressions share a single generated function body, so a
    generalized projection costs one call per row rather than one call
    per output column.
    """
    exprs = tuple(exprs)
    try:
        fingerprint = tuple(
            part for expr in exprs for part in const_fingerprint(expr)
        )
        return _compile_row_cached(exprs, schema, fingerprint)
    except TypeError:
        emitter = _Emitter(schema)
        atoms = [emitter.lower(expr, 1) for expr in exprs]
        return emitter.assemble(
            "(" + ", ".join(atoms) + ("," if len(atoms) == 1 else "") + ")"
        )


def clear_expr_cache() -> None:
    _compile_expr_cached.cache_clear()
    _compile_predicate_cached.cache_clear()
    _compile_row_cached.cache_clear()


def expr_cache_info() -> dict[str, Any]:
    return {
        "expr": _compile_expr_cached.cache_info(),
        "predicate": _compile_predicate_cached.cache_info(),
        "row": _compile_row_cached.cache_info(),
    }
