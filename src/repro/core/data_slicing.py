"""Data slicing (Section 6): filter data irrelevant to the HWQ.

Any tuple in ``Δ(H(D), H[M](D))`` must derive from an input tuple affected
by at least one statement modified by ``M``.  For every modification we
build the per-relation condition describing "affected by ``u`` or ``u'``"
(Equations 7/8 and the insert-query rule), *push it down* through the
statements preceding the modification (substituting attributes with the
conditional update expressions, Figure 9), and take the disjunction over
all modifications.  The resulting conditions are injected as selections
over the base relations of the reenactment queries.

Soundness (Theorem 2) relies on histories being key-preserving: under pure
set semantics an update can merge two tuples and filtering may then perturb
the delta; every workload in the paper (and in :mod:`repro.workloads`)
carries an immutable key, which rules this out.  See DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..relational.algebra import (
    Difference,
    Join,
    Operator,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
    base_relations,
    evaluate_query,
    output_schema,
)
from ..relational.expressions import (
    Attr,
    Expr,
    FALSE,
    If,
    TRUE,
    and_,
    attributes_of,
    conjuncts_of,
    expr_size,
    or_,
    simplify,
    substitute_attributes,
)
from ..relational.schema import Schema
from ..relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    Statement,
    UpdateStatement,
)
from .hwq import AlignedHistories

__all__ = [
    "DataSlicingConditions",
    "compute_data_slicing",
    "push_condition_through_query",
    "slicing_selectivity",
]


@dataclass(frozen=True)
class DataSlicingConditions:
    """Per-relation slicing conditions for the two reenactment queries.

    A relation absent from a mapping has condition FALSE: no tuple of it
    can contribute to the delta, and the engine skips its delta entirely.
    ``condition_size`` is the total expression size (the pushdown cost the
    paper discusses for late modifications — Figure 17/20 territory).
    """

    for_original: Mapping[str, Expr]
    for_modified: Mapping[str, Expr]

    def __post_init__(self) -> None:
        object.__setattr__(self, "for_original", dict(self.for_original))
        object.__setattr__(self, "for_modified", dict(self.for_modified))

    def affected_relations(self) -> set[str]:
        return set(self.for_original) | set(self.for_modified)

    def condition_size(self) -> int:
        return sum(
            expr_size(c) for c in self.for_original.values()
        ) + sum(expr_size(c) for c in self.for_modified.values())


def _affected_condition_map(
    stmt: Statement, schemas: Mapping[str, Schema]
) -> dict[str, Expr]:
    """Per-relation condition describing the input tuples a statement can
    affect.

    Updates/deletes affect the tuples matching their condition.  A
    constant insert affects no existing tuple, but under set semantics its
    tuple can *collide* with a base tuple — when the insert is on only one
    side of a modification, filtering that base tuple away would let the
    insert re-add it on one side only, corrupting the delta.  The insert
    therefore admits tuples equal to its inserted value.  Inserts with
    queries affect the source tuples that can contribute to the query,
    obtained by pushing the query's selections down to its base relations
    (the "selection move-around" of Section 6).
    """
    if isinstance(stmt, (UpdateStatement, DeleteStatement)):
        return {stmt.relation: stmt.condition}
    if isinstance(stmt, InsertTuple):
        from ..relational.expressions import Attr, IsNull, eq

        schema = schemas.get(stmt.relation)
        if schema is None:
            return {stmt.relation: TRUE}
        equalities: list[Expr] = []
        for attribute, value in zip(schema, stmt.values):
            if value is None:
                equalities.append(IsNull(Attr(attribute)))
            else:
                equalities.append(eq(Attr(attribute), value))
        return {stmt.relation: and_(*equalities)}
    if isinstance(stmt, InsertQuery):
        result: dict[str, Expr] = {}
        for source in base_relations(stmt.query):
            pushed = push_condition_through_query(
                TRUE, source, stmt.query, schemas
            )
            if pushed is not None:
                result[source] = or_(result.get(source, FALSE), pushed)
        return result
    raise TypeError(f"unknown statement {stmt!r}")


def _merge_or(
    left: dict[str, Expr], right: dict[str, Expr]
) -> dict[str, Expr]:
    """Pointwise disjunction of per-relation condition maps (missing keys
    are FALSE)."""
    merged = dict(left)
    for relation, condition in right.items():
        if relation in merged:
            merged[relation] = or_(merged[relation], condition)
        else:
            merged[relation] = condition
    return merged


def _base_conditions(
    u: Statement, u_prime: Statement, schemas: Mapping[str, Schema]
) -> tuple[dict[str, Expr], dict[str, Expr]]:
    """The slicing conditions at the modification's own position.

    Returns ``(theta^DS_H, theta^DS_H[M])`` as per-relation maps:

    * update/update: ``theta_u or theta_u'`` on both sides (Eq. 7),
    * delete/delete: ``theta_u'`` for H and ``theta_u`` for H[M] — the
      simplified form derived in Section 6 ("survivors" argument, Eq. 8),
    * any other pairing: the conservative disjunction of each statement's
      affected-condition map.
    """
    if isinstance(u, DeleteStatement) and isinstance(u_prime, DeleteStatement):
        if u.relation == u_prime.relation:
            return (
                {u.relation: u_prime.condition},
                {u.relation: u.condition},
            )
    combined = _merge_or(
        _affected_condition_map(u, schemas),
        _affected_condition_map(u_prime, schemas),
    )
    return dict(combined), dict(combined)


def _push_through_statement(
    conditions: dict[str, Expr],
    stmt: Statement,
    schemas: Mapping[str, Schema],
) -> dict[str, Expr]:
    """One pushdown step ``theta ↓_{j+1}`` of Figure 9 (applied in reverse
    history order by the caller)."""
    target = stmt.relation
    current = conditions.get(target)

    if isinstance(stmt, UpdateStatement):
        if current is None:
            return conditions
        substitution = {
            attribute: If(stmt.condition, expr, Attr(attribute))
            for attribute, expr in stmt.set_clauses.items()
        }
        updated = dict(conditions)
        updated[target] = substitute_attributes(current, substitution)
        return updated

    if isinstance(stmt, (DeleteStatement, InsertTuple)):
        # "otherwise" case of Figure 9: the condition is unchanged.  (For
        # deletes this is conservative: deleted tuples simply fail to
        # produce output.  For I_t the inserted tuple is handled by the
        # singleton branch, not the base-relation filter.)
        return conditions

    if isinstance(stmt, InsertQuery):
        if current is None:
            return conditions
        updated = dict(conditions)
        for source in base_relations(stmt.query):
            pushed = push_condition_through_query(
                current, source, stmt.query, schemas
            )
            if pushed is not None:
                updated[source] = or_(updated.get(source, FALSE), pushed)
        return updated

    raise TypeError(f"unknown statement {stmt!r}")


def push_condition_through_query(
    condition: Expr,
    relation: str,
    query: Operator,
    schemas: Mapping[str, Schema],
) -> Expr | None:
    """``(theta)[relation] ↓ query``: the condition over ``relation``'s
    tuples that admits every tuple contributing to a query result tuple
    satisfying ``theta``.

    Returns ``None`` when ``relation`` cannot contribute at all through
    this query (the identity of the disjunctive accumulation), and the
    conservative ``TRUE`` whenever a construct blocks precise pushdown.
    """
    if isinstance(query, RelScan):
        return condition if query.name == relation else None
    if isinstance(query, Singleton):
        return None
    if isinstance(query, Select):
        return push_condition_through_query(
            and_(condition, query.condition), relation, query.input, schemas
        )
    if isinstance(query, Project):
        substitution = {name: expr for expr, name in query.outputs}
        rewritten = substitute_attributes(condition, substitution)
        return push_condition_through_query(
            rewritten, relation, query.input, schemas
        )
    if isinstance(query, Union):
        try:
            left_schema = output_schema(query.left, dict(schemas))
            right_schema = output_schema(query.right, dict(schemas))
        # repro-lint: allow[broad-swallow] -- unknowable schema weakens the condition to TRUE, sound
        except Exception:
            return TRUE if relation in base_relations(query) else None
        left = push_condition_through_query(
            condition, relation, query.left, schemas
        )
        renamed = substitute_attributes(
            condition,
            {
                old: Attr(new)
                for old, new in zip(
                    left_schema.attributes, right_schema.attributes
                )
                if old != new
            },
        )
        right = push_condition_through_query(
            renamed, relation, query.right, schemas
        )
        if left is None:
            return right
        if right is None:
            return left
        return or_(left, right)
    if isinstance(query, Join):
        # Keep only the conjuncts that mention attributes owned by the
        # side containing the relation; dropping the others weakens the
        # condition (keeps more tuples), which is sound.
        for side in (query.left, query.right):
            if relation not in base_relations(side):
                continue
            try:
                side_schema = output_schema(side, dict(schemas))
            # repro-lint: allow[broad-swallow] -- unknowable schema weakens the condition to TRUE, sound
            except Exception:
                return TRUE
            side_attributes = set(side_schema.attributes)
            kept = [
                conjunct
                for conjunct in conjuncts_of(
                    and_(condition, query.condition)
                )
                if attributes_of(conjunct) <= side_attributes
            ]
            pushable = and_(*kept) if kept else TRUE
            return push_condition_through_query(
                pushable, relation, side, schemas
            )
        return None
    if isinstance(query, Difference):
        # Precise pushdown through difference is not derivable; fall back.
        return TRUE if relation in base_relations(query) else None
    raise TypeError(f"unknown operator {query!r}")


def slicing_selectivity(
    conditions: Mapping[str, Expr],
    db,
    backend: str | None = None,
) -> dict[str, tuple[int, int]]:
    """Measure what a per-relation condition map actually filters.

    Returns ``{relation: (kept_rows, total_rows)}`` over the base
    relations of ``db`` — the observable effect of Theorem 2's
    ``σ_{∨ theta(m_i)↓*}`` selections, reported by the backend benchmark
    and useful when judging whether slicing pays off on a workload.
    Each condition runs as the selection it stands for, through the
    named execution backend (``None``: compiled).
    """
    return {
        name: (
            len(
                evaluate_query(Select(RelScan(name), condition), db, backend)
            ),
            len(db[name]),
        )
        for name, condition in conditions.items()
        if name in db
    }


def compute_data_slicing(
    aligned: AlignedHistories, schemas: Mapping[str, Schema]
) -> DataSlicingConditions:
    """Compute the data-slicing conditions for a (trimmed) aligned pair.

    For each modification at position ``i`` the base condition is pushed
    down through statements ``i-1 .. 1`` of the respective history; the
    final condition per relation is the disjunction over all modifications
    (Theorem 2's ``σ_{∨ theta(m_i)↓*}``), simplified.
    """
    final_original: dict[str, Expr] = {}
    final_modified: dict[str, Expr] = {}

    for position in aligned.modified_positions:
        u = aligned.original[position]
        u_prime = aligned.modified[position]
        base_h, base_m = _base_conditions(u, u_prime, schemas)

        for j in range(position - 1, 0, -1):
            base_h = _push_through_statement(
                base_h, aligned.original[j], schemas
            )
            base_m = _push_through_statement(
                base_m, aligned.modified[j], schemas
            )

        final_original = _merge_or(final_original, base_h)
        final_modified = _merge_or(final_modified, base_m)

    final_original = {
        relation: simplify(condition)
        for relation, condition in final_original.items()
    }
    final_modified = {
        relation: simplify(condition)
        for relation, condition in final_modified.items()
    }
    return DataSlicingConditions(final_original, final_modified)
