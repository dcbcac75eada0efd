"""Insert splitting (Section 10).

The reenactment query of a history with constant inserts is a stack of
projections/selections over unions.  Pulling the unions up (the standard
``Π(Q1 ∪ Q2) = Π(Q1) ∪ Π(Q2)`` / ``σ(Q1 ∪ Q2) = σ(Q1) ∪ σ(Q2)``
equivalences) splits it into

* the reenactment of the history *without* inserts over the base
  relations — the part program slicing can optimize, and
* a query over only the inserted tuples — at most ``|H|`` tuples, cheap to
  evaluate directly.

This module performs the split at the history level: it removes ``I_t``
statements and *replays the full history over an initially-empty database*
to materialize each side's inserted-tuple contribution.  The final result
of the original history is the union of the two parts (valid for
set-semantics tuple-independent statements; inserts with queries disable
the split because ``Q(A ∪ B) ≠ Q(A) ∪ Q(B)`` in general).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..relational.database import Database
from ..relational.history import History
from ..relational.relation import Relation
from ..relational.schema import Schema
from ..relational.statements import InsertQuery, InsertTuple
from .hwq import AlignedHistories, ModificationError

__all__ = ["InsertSplit", "split_inserts", "can_split"]


@dataclass(frozen=True)
class InsertSplit:
    """Result of splitting an aligned pair.

    ``without_inserts``: the aligned pair with every ``I_t`` replaced by a
    no-op (positions are preserved, so slicing bookkeeping stays stable);
    ``inserted_original`` / ``inserted_modified``: the inserted-tuple side
    results for each history, already evaluated (at most ``|H|`` tuples).
    """

    without_inserts: AlignedHistories
    insert_positions: tuple[int, ...]
    inserted_original: Database
    inserted_modified: Database


def can_split(aligned: AlignedHistories) -> bool:
    """The split applies when no statement is an ``INSERT ... SELECT``."""
    return not any(
        isinstance(stmt, InsertQuery)
        for stmt in tuple(aligned.original.statements)
        + tuple(aligned.modified.statements)
    )


def _empty_database(schemas: Mapping[str, Schema]) -> Database:
    return Database(
        {name: Relation.empty(schema) for name, schema in schemas.items()}
    )


def split_inserts(
    aligned: AlignedHistories,
    schemas: Mapping[str, Schema],
    backend: str | None = None,
) -> InsertSplit:
    """Split constant inserts out of an aligned pair.

    A position is dropped when *either* side is an ``I_t`` (its partner is
    then a no-op or another insert by construction of the alignment); the
    inserted tuples and everything the suffix statements do to them are
    captured by replaying each full history over an empty database,
    through the named execution backend (``None``: compiled).
    """
    if not can_split(aligned):
        raise ModificationError(
            "insert splitting requires histories without INSERT ... SELECT"
        )

    from ..relational.statements import no_op

    insert_positions: list[int] = []
    original_side = list(aligned.original.statements)
    modified_side = list(aligned.modified.statements)
    for position in aligned.original.positions():
        index = position - 1
        changed = False
        if isinstance(original_side[index], InsertTuple):
            original_side[index] = no_op(original_side[index].relation)
            changed = True
        if isinstance(modified_side[index], InsertTuple):
            modified_side[index] = no_op(modified_side[index].relation)
            changed = True
        if changed:
            insert_positions.append(position)

    without = AlignedHistories(
        History(tuple(original_side)), History(tuple(modified_side))
    )
    empty = _empty_database(schemas)
    inserted_original = aligned.original.execute(empty, backend)
    inserted_modified = aligned.modified.execute(empty, backend)
    return InsertSplit(
        without_inserts=without,
        insert_positions=tuple(insert_positions),
        inserted_original=inserted_original,
        inserted_modified=inserted_modified,
    )
