"""Transactional histories.

A history ``H = u_1, ..., u_n`` is a sequence of statements (Section 2).
This module provides execution (``H(D)``), prefixes ``H_i``, index-subset
histories ``H_I``, and per-relation restriction, plus the snapshot hooks
used by time travel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .database import Database
from .exec.backend import resolve_backend
from .statements import Statement, is_tuple_independent

__all__ = ["History"]


@dataclass(frozen=True)
class History:
    """An immutable sequence of update statements."""

    statements: tuple[Statement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "statements", tuple(self.statements))

    @classmethod
    def of(cls, *statements: Statement) -> "History":
        return cls(tuple(statements))

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __getitem__(self, index: int) -> Statement:
        """1-based access matching the paper's ``u_i`` numbering."""
        if not 1 <= index <= len(self.statements):
            raise IndexError(
                f"statement index {index} out of range 1..{len(self.statements)}"
            )
        return self.statements[index - 1]

    # -- execution -----------------------------------------------------------
    def execute(self, db: Database, backend: str | None = None) -> Database:
        """``H(D)``: apply all statements in order, through the named
        execution backend (``None``: compiled)."""
        apply = resolve_backend(backend).apply
        for stmt in self.statements:
            db = apply(stmt, db)
        return db

    def execute_with_snapshots(
        self, db: Database, backend: str | None = None
    ) -> Iterator[Database]:
        """Lazily yield ``D_0, D_1, ..., D_n`` where ``D_i = H_i(D)``.

        ``D_0`` is the input database.  A generator, so consumers that
        only sample versions (checkpointing, time travel) never hold
        O(n) full states at once; wrap in ``list()`` for the eager
        chain.
        """
        apply = resolve_backend(backend).apply
        yield db
        for stmt in self.statements:
            db = apply(stmt, db)
            yield db

    # -- sub-histories ---------------------------------------------------
    def prefix(self, i: int) -> "History":
        """``H_i = u_1, ..., u_i`` (``H_0`` is the empty history)."""
        if not 0 <= i <= len(self.statements):
            raise IndexError(f"prefix length {i} out of range")
        return History(self.statements[:i])

    def slice_range(self, i: int, j: int) -> "History":
        """``H_{i,j} = u_i, ..., u_j`` (inclusive, 1-based)."""
        if not (1 <= i <= j <= len(self.statements)):
            raise IndexError(f"range {i}..{j} out of bounds")
        return History(self.statements[i - 1 : j])

    def subset(self, indices: Iterable[int]) -> "History":
        """``H_I``: statements at the (1-based) positions in ``I``.

        Positions are applied in ascending order regardless of the order
        given.
        """
        wanted = sorted(set(indices))
        for i in wanted:
            if not 1 <= i <= len(self.statements):
                raise IndexError(f"index {i} out of range")
        return History(tuple(self.statements[i - 1] for i in wanted))

    def replace(self, position: int, stmt: Statement) -> "History":
        """History with the statement at ``position`` (1-based) replaced."""
        if not 1 <= position <= len(self.statements):
            raise IndexError(f"position {position} out of range")
        updated = list(self.statements)
        updated[position - 1] = stmt
        return History(tuple(updated))

    def insert_at(self, position: int, stmt: Statement) -> "History":
        """History with ``stmt`` inserted *at* position (1-based)."""
        if not 1 <= position <= len(self.statements) + 1:
            raise IndexError(f"position {position} out of range")
        updated = list(self.statements)
        updated.insert(position - 1, stmt)
        return History(tuple(updated))

    def delete_at(self, position: int) -> "History":
        """History with the statement at ``position`` removed."""
        if not 1 <= position <= len(self.statements):
            raise IndexError(f"position {position} out of range")
        updated = list(self.statements)
        del updated[position - 1]
        return History(tuple(updated))

    # -- properties ------------------------------------------------------
    def accessed_relations(self) -> set[str]:
        """All relations read or written by the history."""
        names: set[str] = set()
        for stmt in self.statements:
            names |= stmt.accessed_relations()
        return names

    def target_relations(self) -> set[str]:
        """Relations written by the history."""
        return {stmt.relation for stmt in self.statements}

    def restrict_to_relation(self, relation: str) -> "list[tuple[int, Statement]]":
        """(position, statement) pairs of statements targeting ``relation``."""
        return [
            (i, stmt)
            for i, stmt in enumerate(self.statements, start=1)
            if stmt.relation == relation
        ]

    def is_tuple_independent(self) -> bool:
        """True when every statement is tuple independent (Definition 1)."""
        return all(is_tuple_independent(s) for s in self.statements)

    def positions(self) -> range:
        """1-based positions of the history's statements."""
        return range(1, len(self.statements) + 1)
