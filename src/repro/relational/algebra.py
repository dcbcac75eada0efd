"""Relational algebra operators and their set-semantics evaluator.

Reenactment (Definition 3 of the paper) compiles histories into algebra
trees built from generalized projection (projection onto arbitrary
expressions, used for updates), selection (deletes), union (inserts) and —
for delta computation and ``INSERT ... SELECT`` queries — difference and
join.  The evaluator here (:func:`evaluate_query_interpreted`) interprets
trees directly over :class:`~repro.relational.database.Database`
instances and is the reference every other execution backend is tested
against; :func:`evaluate_query` runs a tree through a named backend.

Operator trees are immutable; rewrites (data slicing injects selections at
the leaves, Section 10 pulls unions up past projections) return new trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from .database import Database
from .expressions import (
    Expr,
    TRUE,
    and_,
    attributes_of,
    evaluate,
    simplify,
)
from .exec.backend import resolve_backend
from .relation import Relation
from .schema import Schema, SchemaError, check_union_compatible

__all__ = [
    "Operator",
    "RelScan",
    "Singleton",
    "Project",
    "Select",
    "Union",
    "Difference",
    "Join",
    "evaluate_query",
    "evaluate_query_interpreted",
    "output_schema",
    "base_relations",
    "substitute_scans",
    "inject_selection",
    "operator_count",
    "walk_operators",
]


class Operator:
    """Base class for relational algebra operators."""


@dataclass(frozen=True)
class RelScan(Operator):
    """A scan of a named base relation ``R``."""

    name: str


@dataclass(frozen=True)
class Singleton(Operator):
    """A constant singleton relation ``{t}`` (reenacts ``INSERT VALUES``)."""

    schema: Schema
    row: tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "row", tuple(self.row))
        if len(self.row) != self.schema.arity:
            raise SchemaError("singleton row arity does not match schema")


@dataclass(frozen=True)
class Project(Operator):
    """Generalized projection ``Π_{e_1 -> A_1, ..., e_n -> A_n}(Q)``."""

    input: Operator
    outputs: tuple[tuple[Expr, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(self.outputs))
        names = [name for _, name in self.outputs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate output names in projection: {names}")


@dataclass(frozen=True)
class Select(Operator):
    """Selection ``σ_θ(Q)``."""

    input: Operator
    condition: Expr


@dataclass(frozen=True)
class Union(Operator):
    """Set union ``Q1 ∪ Q2``.  Both sides must produce the *same
    attribute names* in the same order — ``schema.check_union_compatible``
    raises on any mismatch — so a condition over the union reads the
    same over either side (what the optimizer's pushdown relies on)."""

    left: Operator
    right: Operator


@dataclass(frozen=True)
class Difference(Operator):
    """Set difference ``Q1 − Q2``."""

    left: Operator
    right: Operator


@dataclass(frozen=True)
class Join(Operator):
    """Theta join ``Q1 ⋈_θ Q2`` (condition over the concatenated schema)."""

    left: Operator
    right: Operator
    condition: Expr = TRUE


# -- schema inference -------------------------------------------------------

def output_schema(op: Operator, db_schemas: dict[str, Schema]) -> Schema:
    """Infer the output schema of an operator tree.

    ``db_schemas`` maps base relation names to their schemas.
    """
    if isinstance(op, RelScan):
        try:
            return db_schemas[op.name]
        except KeyError:
            raise SchemaError(f"unknown relation {op.name!r}") from None
    if isinstance(op, Singleton):
        return op.schema
    if isinstance(op, Project):
        return Schema(tuple(name for _, name in op.outputs))
    if isinstance(op, Select):
        return output_schema(op.input, db_schemas)
    if isinstance(op, (Union, Difference)):
        left = output_schema(op.left, db_schemas)
        right = output_schema(op.right, db_schemas)
        check_union_compatible(left, right, "union/difference")
        return left
    if isinstance(op, Join):
        return output_schema(op.left, db_schemas).concat(
            output_schema(op.right, db_schemas)
        )
    raise TypeError(f"unknown operator {op!r}")


# -- evaluation -------------------------------------------------------------

def evaluate_query(
    op: Operator, db: Database, backend: str | None = None
) -> Relation:
    """Evaluate an operator tree over a database (set semantics).

    ``backend`` names the execution backend (see
    :mod:`repro.relational.exec.backend`): ``"compiled"`` — also what
    ``None`` means — runs whole-column kernels over the relations'
    cached typed columns, with closure-compiled per-row fallbacks
    wherever eager array evaluation could differ from the interpreter,
    ``"interpreted"`` walks the tree per tuple
    (:func:`evaluate_query_interpreted`, the reference), ``"sqlite"``
    translates the tree to SQL and executes it server-side on an
    in-memory SQLite database (the paper's middleware architecture), and
    ``"vector"`` is the same columnar evaluator under its older name.
    All four are differentially tested to agree on every operator and expression
    shape; the caveats are error *raising* inside join conditions over
    ill-typed data, where the hash join skips pairs the interpreter
    would have evaluated, and the sqlite backend's typed-domain caveats
    (see DESIGN.md, "Execution backends").
    """
    return resolve_backend(backend).evaluate(op, db)


def evaluate_query_interpreted(op: Operator, db: Database) -> Relation:
    """The tree-walking reference evaluator (the differential oracle)."""
    if isinstance(op, RelScan):
        return db[op.name]
    if isinstance(op, Singleton):
        return Relation(op.schema, frozenset({op.row}))
    if isinstance(op, Project):
        child = evaluate_query_interpreted(op.input, db)
        out_schema = Schema(tuple(name for _, name in op.outputs))
        rows = frozenset(
            tuple(
                evaluate(expr, child.schema.as_dict(t))
                for expr, _ in op.outputs
            )
            for t in child
        )
        return Relation(out_schema, rows)
    if isinstance(op, Select):
        child = evaluate_query_interpreted(op.input, db)
        return child.filter(op.condition)
    if isinstance(op, Union):
        left = evaluate_query_interpreted(op.left, db)
        right = evaluate_query_interpreted(op.right, db)
        check_union_compatible(left.schema, right.schema, "union")
        return Relation(left.schema, left.tuples | right.tuples)
    if isinstance(op, Difference):
        left = evaluate_query_interpreted(op.left, db)
        right = evaluate_query_interpreted(op.right, db)
        check_union_compatible(left.schema, right.schema, "difference")
        return Relation(left.schema, left.tuples - right.tuples)
    if isinstance(op, Join):
        left = evaluate_query_interpreted(op.left, db)
        right = evaluate_query_interpreted(op.right, db)
        schema = left.schema.concat(right.schema)
        rows = set()
        for lt in left:
            left_binding = left.schema.as_dict(lt)
            for rt in right:
                binding = dict(left_binding)
                binding.update(right.schema.as_dict(rt))
                if bool(evaluate(op.condition, binding)):
                    rows.add(lt + rt)
        return Relation(schema, frozenset(rows))
    raise TypeError(f"unknown operator {op!r}")


# -- structural utilities ----------------------------------------------------

def _children(op: Operator) -> tuple[Operator, ...]:
    if isinstance(op, (Project, Select)):
        return (op.input,)
    if isinstance(op, (Union, Difference, Join)):
        return (op.left, op.right)
    return ()


def walk_operators(op: Operator) -> Iterator[Operator]:
    """Yield all operators in the tree (pre-order)."""
    stack = [op]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


def operator_count(op: Operator) -> int:
    """Number of operators in the tree (a proxy for query complexity)."""
    return sum(1 for _ in walk_operators(op))


def base_relations(op: Operator) -> set[str]:
    """Names of all base relations scanned by the tree."""
    return {node.name for node in walk_operators(op) if isinstance(node, RelScan)}


def _rebuild(op: Operator, children: tuple[Operator, ...]) -> Operator:
    if isinstance(op, Project):
        return Project(children[0], op.outputs)
    if isinstance(op, Select):
        return Select(children[0], op.condition)
    if isinstance(op, Union):
        return Union(children[0], children[1])
    if isinstance(op, Difference):
        return Difference(children[0], children[1])
    if isinstance(op, Join):
        return Join(children[0], children[1], op.condition)
    return op


def transform_operators(
    op: Operator, fn: Callable[[Operator], Operator | None]
) -> Operator:
    """Bottom-up rewrite of an operator tree (same contract as
    :func:`repro.relational.expressions.transform`)."""
    children = _children(op)
    if children:
        new_children = tuple(transform_operators(c, fn) for c in children)
        if new_children != children:
            op = _rebuild(op, new_children)
    replacement = fn(op)
    return op if replacement is None else replacement


def substitute_scans(
    op: Operator, mapping: dict[str, Operator]
) -> Operator:
    """Replace each ``RelScan(name)`` with ``mapping[name]`` when present.

    This is how reenactment queries are composed: the reenactment query of
    statement ``u_i`` references the relation produced by ``u_{i-1}``, so we
    substitute the scan with the previous reenactment query (Definition 3).
    """

    def visit(node: Operator) -> Operator | None:
        if isinstance(node, RelScan) and node.name in mapping:
            return mapping[node.name]
        return None

    return transform_operators(op, visit)


def inject_selection(
    op: Operator, conditions: dict[str, Expr]
) -> Operator:
    """Wrap each base-relation scan in a selection.

    Used by data slicing (Section 6): ``conditions`` maps relation names to
    slicing conditions; scans of other relations are left untouched.
    Conditions equal to TRUE are skipped.
    """

    def visit(node: Operator) -> Operator | None:
        if isinstance(node, RelScan):
            cond = conditions.get(node.name)
            if cond is not None:
                cond = simplify(cond)
                if cond != TRUE:
                    return Select(node, cond)
        return None

    return transform_operators(op, visit)
