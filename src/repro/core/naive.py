"""The naive HWQ algorithm (Algorithm 1).

Copy the database as of the start of the (trimmed) history, execute the
modified history over the copy by *actually running the statements* (write
I/O!), then compute the delta between the current state and the copy's
final state with one delta query per relation.

The three phases are timed separately because Figure 15 of the paper
reports the naive method's Creation / Exe / Delta breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..relational.database import Database
from ..relational.relation import Relation
from .delta import DatabaseDelta
from .hwq import HistoricalWhatIfQuery

__all__ = ["NaiveResult", "naive_what_if"]


@dataclass(frozen=True)
class NaiveResult:
    """Answer plus the phase timing breakdown of Figure 15."""

    delta: DatabaseDelta
    creation_seconds: float
    execution_seconds: float
    delta_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.creation_seconds + self.execution_seconds + self.delta_seconds


def _copy_database(db: Database, relations: set[str]) -> Database:
    """Deep-copy the relations accessed by the history.

    The in-memory engine shares immutable storage, so to faithfully model
    the naive method's copy cost we materialize fresh tuple sets (this is
    the write amplification Algorithm 1 pays and reenactment avoids).
    """
    copied: dict[str, Relation] = {}
    for name in relations:
        source = db[name]
        copied[name] = Relation(
            source.schema, frozenset(tuple(t) for t in source.tuples)
        )
    result = db
    for name, relation in copied.items():
        result = result.with_relation(name, relation)
    return result


def naive_what_if(
    query: HistoricalWhatIfQuery,
    current_state: Database | None = None,
    backend: str | None = None,
) -> NaiveResult:
    """Answer a HWQ with Algorithm 1.

    ``current_state`` is ``H(D)`` when the caller already has it (the DBMS
    always does — it *is* the database); otherwise it is computed here but
    not charged to any phase, mirroring the paper's accounting.

    ``backend`` names the execution backend every statement replays
    through (``None``: compiled).
    """
    aligned = query.aligned()
    trimmed, k = aligned.trim_prefix()

    # Time travel to the state before the first modified statement.
    start_db = query.history.prefix(k).execute(query.database, backend)
    if current_state is None:
        current_state = trimmed.original.execute(start_db, backend)

    accessed = trimmed.modified.accessed_relations() | trimmed.original.accessed_relations()

    t0 = time.perf_counter()
    copy = _copy_database(start_db, accessed)
    t1 = time.perf_counter()
    modified_state = trimmed.modified.execute(copy, backend)
    t2 = time.perf_counter()
    delta = DatabaseDelta.between(current_state, modified_state)
    t3 = time.perf_counter()

    return NaiveResult(
        delta=delta,
        creation_seconds=t1 - t0,
        execution_seconds=t2 - t1,
        delta_seconds=t3 - t2,
    )
