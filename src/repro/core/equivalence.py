"""History equivalence checking — the paper's "future work" application.

Section 14 closes with: *"we will explore novel application of our
symbolic evaluation technique such as proving equivalence of transactional
histories."*  The machinery built for program slicing does exactly this:
two histories are equivalent over a database class when, for every
possible input tuple, they produce the same result — the Equation-19
condition checked for validity instead of the slicing condition.

:func:`check_history_equivalence` decides, for tuple-independent
histories over the relations of a database:

* ``EQUIVALENT`` — proven equal on *every* database admitted by the
  compressed constraint Φ_D (hence on the given database),
* ``DIFFERENT`` — a concrete witness tuple distinguishes them (the
  witness is returned when the solver produces one),
* ``UNKNOWN`` — the solver could not decide (non-linear arithmetic, node
  limits, or inserts-with-queries).

Because Φ_D over-approximates the database, ``EQUIVALENT`` is sound for
the *given* database and any other database satisfying the constraints —
e.g. after new rows arrive within the same value ranges.  ``DIFFERENT``
witnesses are checked against Φ_D but may use tuples not actually present
(set ``require_concrete`` to insist on a tuple from the database).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Mapping

from ..relational.database import Database
from ..relational.expressions import (
    Expr,
    Not,
    variables_of,
)
from ..relational.history import History
from ..relational.schema import Schema
from ..solver.session import SolverSession
from ..symbolic.compress import CompressionConfig, compress_relation
from ..symbolic.symexec import (
    DefiningConjuncts,
    SymbolicExecutionError,
    run_history_single_tuple,
)
from ..symbolic.vctable import SymbolicTuple
from .hwq import AlignedHistories
from .insert_split import can_split, split_inserts
from .program_slicing import histories_equal_condition

__all__ = ["EquivalenceVerdict", "EquivalenceResult", "check_history_equivalence"]


class EquivalenceVerdict(enum.Enum):
    EQUIVALENT = "equivalent"
    DIFFERENT = "different"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome with an optional distinguishing witness."""

    verdict: EquivalenceVerdict
    witness: dict[str, Any] | None = None
    relation: str | None = None

    @property
    def is_equivalent(self) -> bool:
        return self.verdict is EquivalenceVerdict.EQUIVALENT


def check_history_equivalence(
    first: History,
    second: History,
    database: Database,
    compression: CompressionConfig | None = None,
) -> EquivalenceResult:
    """Prove or refute ``first(D) == second(D)`` for all admitted worlds.

    Constant inserts are handled by the Section-10 split: the inserted
    sides are compared concretely (they are tiny), the update/delete parts
    symbolically.  Inserts with queries yield UNKNOWN.
    """
    compression = compression or CompressionConfig()
    relations = first.target_relations() | second.target_relations()
    schemas: dict[str, Schema] = {
        name: database.schema_of(name)
        for name in relations
        if name in database
    }
    if set(schemas) != relations:
        missing = relations - set(schemas)
        raise KeyError(f"histories target unknown relations {missing}")

    # Pad to an aligned pair so the split machinery applies; padding with
    # no-ops never changes semantics.
    from ..relational.statements import no_op

    max_len = max(len(first), len(second))
    first_padded = list(first.statements)
    second_padded = list(second.statements)
    anchor = next(iter(relations)) if relations else None
    while len(first_padded) < max_len:
        first_padded.append(no_op(anchor))
    while len(second_padded) < max_len:
        second_padded.append(no_op(anchor))
    aligned = AlignedHistories(
        History(tuple(first_padded)), History(tuple(second_padded))
    )

    if not can_split(aligned):
        return EquivalenceResult(EquivalenceVerdict.UNKNOWN)
    split = split_inserts(aligned, schemas)

    # Inserted-tuple sides must agree exactly.
    for name in schemas:
        left = split.inserted_original[name]
        right = split.inserted_modified[name]
        if set(left.tuples) != set(right.tuples):
            sample = next(iter(left.tuples ^ right.tuples))
            return EquivalenceResult(
                EquivalenceVerdict.DIFFERENT,
                witness=dict(zip(schemas[name].attributes, sample)),
                relation=name,
            )

    # Symbolic comparison of the update/delete parts, per relation.
    pair = split.without_inserts
    for name, schema in sorted(schemas.items()):
        input_tuple = SymbolicTuple.fresh(schema, prefix=f"eqv_{name}")
        phi_d = compress_relation(database[name], input_tuple, compression)
        try:
            run_a = run_history_single_tuple(
                pair.original, name, schema, input_tuple, prefix=f"ea_{name}"
            )
            run_b = run_history_single_tuple(
                pair.modified, name, schema, input_tuple, prefix=f"eb_{name}"
            )
        except SymbolicExecutionError:
            return EquivalenceResult(EquivalenceVerdict.UNKNOWN)

        equal = histories_equal_condition(run_a, run_b)
        defs = DefiningConjuncts(
            tuple(run_a.global_conjuncts) + tuple(run_b.global_conjuncts)
        ).needed_by(variables_of(equal) | variables_of(phi_d))
        result = SolverSession(phi_d).check(Not(equal), defs)
        if result.is_unsat:
            continue
        if result.is_sat:
            witness = None
            if result.witness:
                witness = {
                    attribute: result.witness.get(f"eqv_{name}_{attribute}")
                    for attribute in schema
                    if f"eqv_{name}_{attribute}" in result.witness
                }
            return EquivalenceResult(
                EquivalenceVerdict.DIFFERENT,
                witness=witness or None,
                relation=name,
            )
        return EquivalenceResult(EquivalenceVerdict.UNKNOWN)
    return EquivalenceResult(EquivalenceVerdict.EQUIVALENT)
