"""Program slicing (Sections 7 and 8): exclude irrelevant statements.

A slice ``(H_I, H[M]_I)`` may replace the full histories when answering a
HWQ (Definition 4).  Because testing sliceness exactly is as expensive as
answering the query, the paper restricts itself to tuple-independent
statements and checks — per input tuple, symbolically — that the sliced
and full histories produce the same delta (Equation 16).  The check runs
the four histories (H, H[M], H_I, H[M]_I) over a shared single-tuple
VC-instance constrained by the compressed database Φ_D, builds the slicing
condition ζ (Equation 18 with the per-pair equality of Equation 19), and
asks the solver (:mod:`repro.solver`, standing in for the paper's MILP)
whether ¬ζ is satisfiable; UNSAT proves the slice (Theorem 4).

The greedy algorithm (Section 8.3.3) starts from the full index set and
tries to drop one statement at a time, keeping the drop whenever the
solver proves the smaller set is still a slice.  UNKNOWN solver outcomes
(an atom the case split cannot normalise) conservatively keep the
statement.

Histories must contain only updates and deletes: the engine peels constant
inserts away first (Section 10, :mod:`repro.core.insert_split`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..relational.database import Database
from ..relational.expressions import (
    Expr,
    Not,
    TRUE,
    and_,
    eq,
    or_,
    simplify,
    variables_of,
)
from ..relational.history import History
from ..relational.schema import Schema
from ..solver.session import SolverSession
from ..symbolic.compress import CompressionConfig, compress_relation
from ..symbolic.symexec import (
    DefiningConjuncts,
    SingleTupleRun,
    run_history_single_tuple,
)
from ..symbolic.vctable import SymbolicTuple
from .hwq import AlignedHistories

__all__ = [
    "ProgramSlicingConfig",
    "SliceResult",
    "histories_equal_condition",
    "slicing_condition",
    "is_slice",
    "greedy_slice",
]


@dataclass(frozen=True)
class ProgramSlicingConfig:
    """Tunables for program slicing: ``compression`` controls Φ_D."""

    compression: CompressionConfig = field(default_factory=CompressionConfig)


@dataclass(frozen=True)
class SliceResult:
    """Outcome of slicing: the kept (1-based, aligned) positions plus
    accounting used by the benchmarks (PS time is reported separately in
    the paper's Figure 16)."""

    kept_positions: tuple[int, ...]
    total_positions: int
    solver_calls: int
    solver_seconds: float

    @property
    def excluded_count(self) -> int:
        return self.total_positions - len(self.kept_positions)


def histories_equal_condition(
    run_a: SingleTupleRun, run_b: SingleTupleRun
) -> Expr:
    """Equation 19: the two histories produce the same result over the
    world of an assignment — either equal surviving tuples or both empty.
    """
    value_equalities = [
        eq(run_a.output_tuple[attribute], run_b.output_tuple[attribute])
        for attribute in run_a.schema
        if run_a.output_tuple[attribute] != run_b.output_tuple[attribute]
    ]
    both_present = and_(
        *(value_equalities + [run_a.local_condition, run_b.local_condition])
    )
    both_absent = and_(
        Not(run_a.local_condition), Not(run_b.local_condition)
    )
    return simplify(or_(both_present, both_absent))


def slicing_condition(
    run_h: SingleTupleRun,
    run_m: SingleTupleRun,
    run_h_sliced: SingleTupleRun,
    run_m_sliced: SingleTupleRun,
) -> Expr:
    """The body of ζ (Equation 18): for the current world, the full and
    sliced histories produce identical single-tuple deltas."""
    eq_full = histories_equal_condition(run_h, run_m)
    eq_sliced = histories_equal_condition(run_h_sliced, run_m_sliced)
    cross_a = and_(
        histories_equal_condition(run_h, run_h_sliced),
        histories_equal_condition(run_m, run_m_sliced),
    )
    cross_b = and_(
        histories_equal_condition(run_h, run_m_sliced),
        histories_equal_condition(run_m, run_h_sliced),
    )
    return or_(
        and_(eq_full, eq_sliced),
        and_(Not(eq_full), or_(cross_a, cross_b)),
    )


class _RelationSlicer:
    """Slicing state for one relation: shared input tuple, Φ_D, and the
    cached full-history runs."""

    def __init__(
        self,
        relation: str,
        schema: Schema,
        aligned: AlignedHistories,
        database: Database,
        config: ProgramSlicingConfig,
    ) -> None:
        self.relation = relation
        self.schema = schema
        self.aligned = aligned
        self.config = config
        self.input_tuple = SymbolicTuple.fresh(schema, prefix=f"in_{relation}")
        self.phi_d = compress_relation(
            database[relation], self.input_tuple, config.compression
        )
        self._counter = 0
        self.solver_calls = 0
        # Φ_D is the same for every candidate: prepare it once.
        start = time.perf_counter()
        self._session = SolverSession(self.phi_d)
        self.solver_seconds = time.perf_counter() - start
        self._phi_d_variables = variables_of(self.phi_d)
        self.run_h = self._run(aligned.original, "h")
        self.run_m = self._run(aligned.modified, "m")

    def _run(self, history: History, tag: str) -> SingleTupleRun:
        self._counter += 1
        return run_history_single_tuple(
            history,
            self.relation,
            self.schema,
            self.input_tuple,
            prefix=f"{tag}{self._counter}_{self.relation}",
        )

    def is_slice(self, kept: Iterable[int]) -> bool:
        """Theorem 4 check for the candidate index set ``kept``."""
        kept_sorted = sorted(set(kept))
        sliced = self.aligned.subset(kept_sorted)
        run_h_sliced = self._run(sliced.original, "hs")
        run_m_sliced = self._run(sliced.modified, "ms")

        body = slicing_condition(
            self.run_h, self.run_m, run_h_sliced, run_m_sliced
        )
        all_defs = (
            list(self.run_h.global_conjuncts)
            + list(self.run_m.global_conjuncts)
            + list(run_h_sliced.global_conjuncts)
            + list(run_m_sliced.global_conjuncts)
        )
        relevant = DefiningConjuncts(all_defs).needed_by(
            variables_of(body) | self._phi_d_variables
        )

        start = time.perf_counter()
        result = self._session.check(Not(body), relevant)
        self.solver_seconds += time.perf_counter() - start
        self.solver_calls += 1
        # UNSAT proves the candidate is a slice; SAT/UNKNOWN keep it out.
        return result.is_unsat


def is_slice(
    aligned: AlignedHistories,
    database: Database,
    schemas: Mapping[str, Schema],
    kept_positions: Iterable[int],
    config: ProgramSlicingConfig | None = None,
) -> bool:
    """Check whether an index set is a slice for every affected relation."""
    config = config or ProgramSlicingConfig()
    kept = set(kept_positions)
    for relation in aligned.target_relations_of_modifications():
        slicer = _RelationSlicer(
            relation, schemas[relation], aligned, database, config
        )
        if not slicer.is_slice(kept):
            return False
    return True


def greedy_slice(
    aligned: AlignedHistories,
    database: Database,
    schemas: Mapping[str, Schema],
    config: ProgramSlicingConfig | None = None,
) -> SliceResult:
    """The greedy slicing algorithm of Section 8.3.3.

    Runs per affected relation (tuple independence makes relations
    independent, DESIGN.md note 4); the global slice keeps a position when
    any relation's slicer keeps it.  Statements on relations without any
    modification never reach reenactment, so they are excluded outright.
    """
    config = config or ProgramSlicingConfig()
    n = len(aligned)
    modified = set(aligned.modified_positions)
    affected_relations = aligned.target_relations_of_modifications()

    kept_global: set[int] = set()
    solver_calls = 0
    solver_seconds = 0.0

    for relation in sorted(affected_relations):
        positions = [
            i
            for i in range(1, n + 1)
            if aligned.original[i].relation == relation
            or aligned.modified[i].relation == relation
        ]
        slicer = _RelationSlicer(
            relation, schemas[relation], aligned, database, config
        )
        current = set(positions)
        for candidate in positions:
            if candidate in modified:
                # Dropping a modified statement almost never yields a
                # valid slice, and they are re-added below anyway.
                continue
            trial = current - {candidate}
            if slicer.is_slice(trial):
                current = trial
        kept_global |= current
        solver_calls += slicer.solver_calls
        solver_seconds += slicer.solver_seconds

    # Keep modified positions even if a relation-level pass dropped them
    # (they define the query; reenactment needs them present).
    kept_global |= modified
    return SliceResult(
        kept_positions=tuple(sorted(kept_global)),
        total_positions=n,
        solver_calls=solver_calls,
        solver_seconds=solver_seconds,
    )
