"""Database compression into range constraints (Section 8.3.1).

The input database is (lossily) compressed into a disjunction of
conjunctions of range constraints Φ_D over the single-tuple variables:
rows are partitioned into groups (by a chosen attribute, or quantile
buckets of a numeric attribute), and each group contributes one conjunct
per attribute bounding the variable by the group's min/max (numeric) or by
a small IN-set (categorical).  Every tuple of the relation satisfies Φ_D,
so the possible worlds of the compressed VC-database are a *superset* of
the database — the property Theorem 4's proof relies on.

Attributes with unordered (string) domains of high cardinality are simply
omitted from the constraint, as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import NoneType
from typing import Any

from ..obs.metrics import global_registry
from ..relational.expressions import (
    Expr,
    TRUE,
    and_,
    eq,
    ge,
    le,
    or_,
)
from ..relational.identity_memo import IdentityMemo
from ..relational.relation import Relation
from ..relational.schema import Schema
from .vctable import SymbolicTuple

__all__ = ["CompressionConfig", "compress_relation", "constraint_admits_all"]

#: Above this many distinct strings an attribute is left unconstrained.
DEFAULT_MAX_DISTINCT = 12


@dataclass(frozen=True)
class CompressionConfig:
    """How to compress one relation.

    ``group_by``: attribute to partition on (``None`` = single group).
    ``num_groups``: for numeric group-by attributes, the number of
    quantile buckets; categorical group-by uses one group per value.
    ``max_distinct``: categorical attributes with more distinct values
    than this are omitted from the constraint.
    """

    group_by: str | None = None
    num_groups: int = 2
    max_distinct: int = DEFAULT_MAX_DISTINCT


#: Φ_D per relation identity; inner key ``(symbolic tuple, config)``.
#: Φ_D is a function of the (immutable) relation alone, so it is
#: remembered *on* the relation and dies with it — an engine-owned map
#: would have to pin every state it was ever handed.
_PHI_D = IdentityMemo()

_MEMO_OUTCOMES = global_registry().counter(
    "mahif_phi_d_memo_total",
    "compress_relation calls by outcome: hit (Φ_D remembered on the "
    "relation) or miss (the relation was scanned).",
    ("outcome",),
)


def compress_relation(
    relation: Relation,
    symbolic_tuple: SymbolicTuple,
    config: CompressionConfig | None = None,
) -> Expr:
    """Compress ``relation`` into a constraint over ``symbolic_tuple``.

    Returns Φ_D: a disjunction with one disjunct per group.  An empty
    relation compresses to ``TRUE`` (no information, all worlds possible —
    still a safe over-approximation).

    The result is memoised on the relation's identity: asking again for
    the same relation object, symbolic tuple and config returns the same
    expression without touching a row.
    """
    config = config or CompressionConfig()
    key = (symbolic_tuple, config)
    try:
        hash(key)
    except TypeError:  # an unhashable constant in the symbolic tuple
        return _compress(relation, symbolic_tuple, config)
    phi_d = _PHI_D.find(relation, key)
    if phi_d is not None:
        _MEMO_OUTCOMES.inc(outcome="hit")
        return phi_d
    _MEMO_OUTCOMES.inc(outcome="miss")
    return _PHI_D.remember(
        relation, key, _compress(relation, symbolic_tuple, config)
    )


def _compress(
    relation: Relation, symbolic_tuple: SymbolicTuple, config: CompressionConfig
) -> Expr:
    """The scan behind :func:`compress_relation`, column-wise: rows are
    transposed once per group and every column is classified by the set
    of its value types instead of value by value."""
    rows = list(relation)
    if not rows:
        return TRUE
    disjuncts = [
        _group_constraint(group, relation.schema, symbolic_tuple, config)
        for group in _partition(rows, relation.schema, config)
        if group
    ]
    return or_(*disjuncts) if disjuncts else TRUE


def _partition(
    rows: list[tuple], schema: Schema, config: CompressionConfig
) -> list[list[tuple]]:
    """Split rows into groups per the configuration."""
    if config.group_by is None:
        return [rows]
    index = schema.index_of(config.group_by)
    sample = rows[0][index]
    if isinstance(sample, (str, bool)):
        buckets: dict[Any, list[tuple]] = {}
        for row in rows:
            buckets.setdefault(row[index], []).append(row)
        return list(buckets.values())
    # numeric group-by: quantile buckets
    ordered = sorted(rows, key=lambda r: (r[index] is None, r[index]))
    n = max(1, config.num_groups)
    size = max(1, (len(ordered) + n - 1) // n)
    return [ordered[i : i + size] for i in range(0, len(ordered), size)]


def _group_constraint(
    group: list[tuple],
    schema: Schema,
    symbolic_tuple: SymbolicTuple,
    config: CompressionConfig,
) -> Expr:
    """One conjunction of per-attribute range constraints for a group."""
    conjuncts: list[Expr] = []
    for attribute, column in zip(schema, zip(*group)):
        var = symbolic_tuple[attribute]
        types = set(map(type, column))
        has_null = NoneType in types
        types.discard(NoneType)
        if not types:
            continue
        if all(
            issubclass(t, (int, float)) and not issubclass(t, bool)
            for t in types
        ):
            values = (
                [v for v in column if v is not None] if has_null else column
            )
            low, high = min(values), max(values)
            if low == high:
                conjuncts.append(eq(var, low))
            else:
                conjuncts.append(and_(ge(var, low), le(var, high)))
        elif all(issubclass(t, str) for t in types):
            distinct = set(column)
            distinct.discard(None)
            if len(distinct) <= config.max_distinct:
                conjuncts.append(or_(*[eq(var, v) for v in sorted(distinct)]))
            # else: unordered high-cardinality attribute — omit (paper)
        # mixed-type / boolean attributes: omit, still sound
    return and_(*conjuncts) if conjuncts else TRUE


def constraint_admits_all(
    constraint: Expr, relation: Relation, symbolic_tuple: SymbolicTuple
) -> bool:
    """Check the soundness invariant: every tuple of the relation, read as
    an assignment of the symbolic variables, satisfies Φ_D.  Used by tests
    and available for debugging compressed workloads."""
    from ..relational.expressions import evaluate, Var

    for row in relation.rows_as_dicts():
        assignment = {}
        for attribute, expr in symbolic_tuple.values.items():
            if isinstance(expr, Var):
                assignment[expr.name] = row[attribute]
        if not bool(evaluate(constraint, assignment)):
            return False
    return True
