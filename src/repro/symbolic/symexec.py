"""Symbolic execution of statements over VC-tables (Definition 6).

Updates produce, for every input tuple ``t``, a tuple of fresh variables
``t_new`` constrained by the global condition::

    x_{t,A_i} = if theta(t) then e_i(t) else t.A_i

so the result of a history over a single-tuple instance stays a single
tuple and the global condition grows by at most ``|Set|`` conjuncts per
statement — the linear-size encoding that avoids the 2^n blow-up the paper
discusses.  Deletes conjoin ``not theta(t)`` onto local conditions;
constant inserts add the concrete tuple with local condition ``true``.
Inserts with queries are rejected (they are not tuple independent; Section
10 splits them away before slicing).

Variables reuse the paper's naming scheme ``x_{A,i}`` (attribute ``A``
after the ``i``-th statement); attributes untouched by a statement keep
their previous variable, the optimization noted below Definition 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..relational.expressions import (
    Cmp,
    Const,
    Expr,
    If,
    Not,
    TRUE,
    Var,
    and_,
    eq,
    simplify,
    substitute_attributes,
    variables_of,
)
from ..relational.history import History
from ..relational.schema import Schema
from ..relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    Statement,
    UpdateStatement,
)
from .vctable import SymbolicTuple, VCDatabase, VCTable

__all__ = [
    "SymbolicExecutionError",
    "VariableNamer",
    "apply_statement",
    "execute_history",
    "SingleTupleRun",
    "run_history_single_tuple",
    "DefiningConjuncts",
]


class SymbolicExecutionError(Exception):
    """Raised when a statement cannot be executed symbolically."""


class VariableNamer:
    """Generates the paper's ``x_{A,i}`` variable names, namespaced by a
    run prefix so several histories can share one formula without clashes
    (the renaming requirement of Section 8.3.2)."""

    def __init__(self, prefix: str = "x") -> None:
        self.prefix = prefix
        self._versions: dict[str, int] = {}

    def fresh(self, attribute: str) -> Var:
        version = self._versions.get(attribute, 0) + 1
        self._versions[attribute] = version
        return Var(f"{self.prefix}_{attribute}_{version}")


def _bind(expr: Expr, symbolic_tuple: SymbolicTuple) -> Expr:
    """``theta(t)`` / ``e_i(t)``: substitute attribute references with the
    tuple's symbolic values."""
    return substitute_attributes(expr, dict(symbolic_tuple.values))


def apply_statement(
    db: VCDatabase,
    stmt: Statement,
    namer: VariableNamer,
) -> VCDatabase:
    """Apply one statement to a VC-database with possible-world semantics
    (Definition 6 / Theorem 3)."""
    if isinstance(stmt, InsertQuery):
        raise SymbolicExecutionError(
            "INSERT ... SELECT is not tuple independent and cannot be "
            "executed symbolically; split it away first (Section 10)"
        )
    table = db[stmt.relation]

    if isinstance(stmt, UpdateStatement):
        new_rows: list[tuple[SymbolicTuple, Expr]] = []
        conjuncts: list[Expr] = []
        for symbolic_tuple, local in table:
            theta = _bind(stmt.condition, symbolic_tuple)
            new_values: dict[str, Expr] = {}
            for attribute in table.schema:
                if attribute in stmt.set_clauses:
                    fresh = namer.fresh(attribute)
                    assigned = _bind(
                        stmt.set_clauses[attribute], symbolic_tuple
                    )
                    previous = symbolic_tuple[attribute]
                    conjuncts.append(
                        eq(fresh, If(theta, assigned, previous))
                    )
                    new_values[attribute] = fresh
                else:
                    # untouched attribute: reuse the previous variable
                    new_values[attribute] = symbolic_tuple[attribute]
            new_rows.append((SymbolicTuple(new_values), local))
        updated = VCTable(table.schema, tuple(new_rows))
        result = db.with_table(stmt.relation, updated)
        for conjunct in conjuncts:
            result = result.with_conjunct(conjunct)
        return result

    if isinstance(stmt, DeleteStatement):
        new_rows = []
        for symbolic_tuple, local in table:
            theta = _bind(stmt.condition, symbolic_tuple)
            new_local = simplify(and_(local, Not(theta)))
            new_rows.append((symbolic_tuple, new_local))
        return db.with_table(stmt.relation, VCTable(table.schema, tuple(new_rows)))

    if isinstance(stmt, InsertTuple):
        inserted = SymbolicTuple(
            {
                attribute: Const(value)
                for attribute, value in zip(table.schema, stmt.values)
            }
        )
        rows = table.rows + ((inserted, TRUE),)
        return db.with_table(stmt.relation, VCTable(table.schema, rows))

    raise SymbolicExecutionError(f"unsupported statement {stmt!r}")


def execute_history(
    db: VCDatabase, history: History | Iterable[Statement], prefix: str = "x"
) -> VCDatabase:
    """Execute a whole history symbolically."""
    namer = VariableNamer(prefix)
    for stmt in history:
        db = apply_statement(db, stmt, namer)
    return db


@dataclass(frozen=True)
class SingleTupleRun:
    """Result of running one history over the single-tuple instance.

    ``input_tuple`` holds the shared input variables; ``output_tuple`` and
    ``local_condition`` describe the (single) result tuple ``t_H``; the
    defining equalities are in ``global_conjuncts``.  ``steps[j]`` is the
    ``(tuple, local condition)`` state after the first ``j`` statements of
    the history (``steps[0]`` is the input) — the ``t_{i-1}`` versions that
    the dependency analysis of Section 9 evaluates statement conditions
    over.
    """

    relation: str
    schema: Schema
    input_tuple: SymbolicTuple
    output_tuple: SymbolicTuple
    local_condition: Expr
    global_conjuncts: tuple[Expr, ...]
    steps: tuple[tuple[SymbolicTuple, Expr], ...] = ()

    def output_variables(self) -> set[str]:
        names = self.output_tuple.variables()
        names |= variables_of(self.local_condition)
        return names


class DefiningConjuncts:
    """The defining equalities ``x = e`` among a list of conjuncts, read
    once: which name each defines, and (when first needed) which
    variables it mentions.  A slicing check prunes one run's conjuncts
    for every statement it checks; reading them once makes a check that
    needs none of the defined names one set test."""

    __slots__ = ("_defining", "_names", "_variables")

    def __init__(self, conjuncts: Iterable[Expr]) -> None:
        self._defining = [
            (conjunct.left.name, conjunct)
            for conjunct in conjuncts
            if isinstance(conjunct, Cmp)
            and conjunct.op == "="
            and isinstance(conjunct.left, Var)
        ]
        self._names = {name for name, _ in self._defining}
        self._variables: list[set[str] | None] = [None] * len(self._defining)

    def needed_by(self, needed_variables: set[str]) -> list[Expr]:
        """Keep only defining equalities transitively needed by a formula.

        Symbolic execution produces one conjunct ``x_new = if ... then ...
        else x_old`` per updated attribute per statement.  A
        slicing/dependency formula usually references only a few of those
        variables (conditions over never-updated attributes reference
        none); constraining the others is sound but makes the solver
        split on conditions no check depends on.
        Starting from ``needed_variables``, we keep a conjunct iff it
        defines a needed variable, adding the variables it mentions to the
        needed set until fixpoint.  The kept conjuncts come in the order
        of the passes that keep them, each pass in list order.
        """
        if self._names.isdisjoint(needed_variables):
            return []
        variables = self._variables
        remaining = list(enumerate(self._defining))
        kept: list[Expr] = []
        needed = set(needed_variables)
        changed = True
        while changed and remaining:
            changed = False
            still_remaining = []
            for entry in remaining:
                index, (defined, conjunct) = entry
                if defined in needed:
                    kept.append(conjunct)
                    mentioned = variables[index]
                    if mentioned is None:
                        mentioned = variables[index] = variables_of(conjunct)
                    needed |= mentioned
                    changed = True
                else:
                    still_remaining.append(entry)
            remaining = still_remaining
        return kept


def run_history_single_tuple(
    history: History | Iterable[Statement],
    relation: str,
    schema: Schema,
    input_tuple: SymbolicTuple,
    prefix: str,
) -> SingleTupleRun:
    """Run a history over a single-tuple VC-instance of ``relation``.

    All runs share ``input_tuple`` (the variables of D0); the fresh
    variables introduced by updates are namespaced by ``prefix`` so that
    separate runs (H, H[M], slices) never clash — the variable renaming
    required when assembling the slicing condition (Section 8.3.2).

    Statements targeting other relations are skipped: with tuple
    independent statements a relation's evolution does not depend on other
    relations (DESIGN.md note 4).
    """
    initial = VCDatabase({relation: VCTable(schema, ((input_tuple, TRUE),))})
    namer = VariableNamer(prefix)
    db = initial
    steps: list[tuple[SymbolicTuple, Expr]] = [(input_tuple, TRUE)]
    for stmt in history:
        if stmt.relation != relation:
            if isinstance(stmt, InsertQuery):
                raise SymbolicExecutionError(
                    "history contains INSERT ... SELECT; split first"
                )
            # statements on other relations leave this tuple untouched
            steps.append(steps[-1])
            continue
        if isinstance(stmt, InsertTuple):
            raise SymbolicExecutionError(
                "history contains INSERT VALUES; split first (Section 10)"
            )
        db = apply_statement(db, stmt, namer)
        table = db[relation]
        steps.append(table.rows[0])
    table = db[relation]
    if len(table) != 1:
        raise SymbolicExecutionError(
            f"expected a single symbolic tuple, found {len(table)}"
        )
    output_tuple, local = table.rows[0]
    return SingleTupleRun(
        relation=relation,
        schema=schema,
        input_tuple=input_tuple,
        output_tuple=output_tuple,
        local_condition=local,
        global_conjuncts=db.global_conjuncts,
        steps=tuple(steps),
    )
