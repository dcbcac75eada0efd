"""Dependency-based program slicing (Section 9, Theorem 5).

Instead of the greedy candidate search, the optimized analysis asks a
cheaper per-statement question: can some possible world contain a tuple
affected *both* by a modified statement and by statement ``u_i``?  If no
such world exists (``¬ζ(H, M, u_i)`` unsatisfiable), ``u_i`` is
*independent* of the modification and excluded from reenactment.

The check for statement ``u_i`` (Definition 7, generalized to multiple
modifications) is satisfiability of::

    Φ_D ∧ Φ_defs ∧  ∨_{m ∈ M} [ (θ_m(t_{pos(m)-1})   ∧ θ_{u_i}(t_{i-1}))
                               ∨ (θ_m'(t'_{pos(m)-1}) ∧ θ'_{u_i}(t'_{i-1})) ]

where ``t_j`` / ``t'_j`` are the symbolic tuple versions after ``j``
statements of H / H[M] and Φ_defs are the defining equalities of the
symbolic runs.  The formula size is linear in the history length and
independent of the database size — the property that makes PS cost flat in
relation size (Figure 16).

Theorem 5 covers statements *after* a modification: the paper's history
is trimmed to start at its one modified statement.  With several
modifications, or an untrimmed pair, a statement before a later modified
position can decide which tuples reach that modification — a ``DELETE``
that hides them, an ``UPDATE`` that moves them out of its condition — so
"affected by both" being unsatisfiable does not make it droppable.  Every
statement on an affected relation before the last modified position is
therefore kept without a solver check; only the statements after it are
checked.

All checks of a relation share ``Φ_D`` and the "affected by some
modification" disjunction over ``m``; only ``θ_{u_i}`` differs.  The
shared part is therefore prepared once per relation in a
:class:`repro.solver.session.SolverSession` and each statement checks its
own core against it (DESIGN.md "Program slicing and the solver front
end").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from ..obs import trace
from ..relational.database import Database
from ..relational.expressions import (
    Expr,
    FALSE,
    and_,
    or_,
    substitute_attributes,
    variables_of,
)
from ..relational.schema import Schema
from ..relational.statements import (
    DeleteStatement,
    Statement,
    UpdateStatement,
)
from ..solver.session import SolverSession
from ..symbolic.compress import CompressionConfig, compress_relation
from ..symbolic.symexec import (
    prune_defining_conjuncts,
    run_history_single_tuple,
)
from ..symbolic.vctable import SymbolicTuple
from .hwq import AlignedHistories
from .program_slicing import ProgramSlicingConfig, SliceResult

__all__ = ["dependency_slice"]


def _condition_over(stmt: Statement, symbolic_tuple: SymbolicTuple) -> Expr:
    """``θ_u(t)``: the statement's condition bound to a symbolic tuple.

    Statements without a condition in the usual sense (constant inserts)
    affect no existing tuple, hence FALSE.
    """
    if isinstance(stmt, (UpdateStatement, DeleteStatement)):
        return substitute_attributes(
            stmt.condition, dict(symbolic_tuple.values)
        )
    return FALSE


def dependency_slice(
    aligned: AlignedHistories,
    database: Database,
    schemas: Mapping[str, Schema],
    config: ProgramSlicingConfig | None = None,
) -> SliceResult:
    """Compute a slice via the dependency condition of Definition 7.

    Modified statements are always kept, and so is every statement on an
    affected relation before the last modified position (see the module
    docstring); every later statement targeting an affected relation is
    kept iff the dependency formula is satisfiable (or the solver cannot
    decide — conservative).  Statements on relations without
    modifications are excluded, as in :func:`greedy_slice`.
    """
    config = config or ProgramSlicingConfig()
    n = len(aligned)
    modified_positions = set(aligned.modified_positions)
    last_modified = max(modified_positions, default=0)
    affected_relations = aligned.target_relations_of_modifications()

    kept: set[int] = set(modified_positions)
    solver_calls = 0
    solver_seconds = 0.0

    for relation in sorted(affected_relations):
        span = trace.span("dependency_slice")
        with span:
            calls_before = solver_calls
            schema = schemas[relation]
            input_tuple = SymbolicTuple.fresh(schema, prefix=f"dep_{relation}")
            phi_d = compress_relation(
                database[relation], input_tuple, config.compression
            )
            run_h = run_history_single_tuple(
                aligned.original, relation, schema, input_tuple,
                prefix=f"dh_{relation}",
            )
            run_m = run_history_single_tuple(
                aligned.modified, relation, schema, input_tuple,
                prefix=f"dm_{relation}",
            )
            defs = list(run_h.global_conjuncts) + list(run_m.global_conjuncts)

            # "affected by some modification": the tuple's trajectories can
            # diverge between H and H[M].  For update-style pairs this is the
            # Eq.-7 disjunction theta_u OR theta_u' over the tuple version just
            # before the modified statement, in either history.  For
            # delete/delete pairs we use the Section-6 survivor refinement: an
            # H-side tuple matters when it survives u but u' would have deleted
            # it (and symmetrically), which the post-statement local condition
            # plus the *other* statement's condition expresses.
            mod_affected: list[Expr] = []
            for position in sorted(modified_positions):
                u = aligned.original[position]
                u_prime = aligned.modified[position]
                if u.relation != relation and u_prime.relation != relation:
                    continue
                both_deletes = isinstance(u, DeleteStatement) and isinstance(
                    u_prime, DeleteStatement
                )
                if both_deletes:
                    tuple_h_before, _ = run_h.steps[position - 1]
                    tuple_m_before, _ = run_m.steps[position - 1]
                    _, local_h_after = run_h.steps[position]
                    _, local_m_after = run_m.steps[position]
                    mod_affected.append(
                        and_(
                            local_h_after,
                            _condition_over(u_prime, tuple_h_before),
                        )
                    )
                    mod_affected.append(
                        and_(
                            local_m_after,
                            _condition_over(u, tuple_m_before),
                        )
                    )
                else:
                    tuple_h, local_h = run_h.steps[position - 1]
                    tuple_m, local_m = run_m.steps[position - 1]
                    mod_affected.append(
                        and_(
                            local_h,
                            or_(
                                _condition_over(u, tuple_h),
                                _condition_over(u_prime, tuple_h),
                            ),
                        )
                    )
                    mod_affected.append(
                        and_(
                            local_m,
                            or_(
                                _condition_over(u, tuple_m),
                                _condition_over(u_prime, tuple_m),
                            ),
                        )
                    )
            affected_any = or_(*mod_affected) if mod_affected else FALSE

            # Φ_D and "affected by some modification" are the same in every
            # check below: prepare them once.
            shared = and_(phi_d, affected_any)
            start = time.perf_counter()
            session = SolverSession(shared, config.solver)
            solver_seconds += time.perf_counter() - start
            shared_variables = variables_of(shared)

            for position in range(1, n + 1):
                if position in modified_positions:
                    continue
                stmt = aligned.original[position]
                if stmt.relation != relation:
                    continue
                if position < last_modified:
                    kept.add(position)
                    continue
                tuple_h, local_h = run_h.steps[position - 1]
                tuple_m, local_m = run_m.steps[position - 1]
                touches_h = and_(local_h, _condition_over(stmt, tuple_h))
                touches_m = and_(local_m, _condition_over(stmt, tuple_m))
                core = or_(touches_h, touches_m)
                relevant = prune_defining_conjuncts(
                    defs, variables_of(core) | shared_variables
                )

                start = time.perf_counter()
                result = session.check(core, relevant)
                solver_seconds += time.perf_counter() - start
                solver_calls += 1
                if not result.is_unsat:
                    kept.add(position)

            if isinstance(span, trace.Span):
                # only a traced answer pays for the counting walk
                positions = [
                    position for position in range(1, n + 1)
                    if aligned.original[position].relation == relation
                ]
                boxes = session.intervals
                span.set_attributes(
                    {
                        "statements": len(positions),
                        "solver_calls": solver_calls - calls_before,
                        "kept": len(kept.intersection(positions)),
                        "prefix_boxes": boxes.prefix_boxes if boxes else 0,
                        "rest_boxes": boxes.rest_boxes if boxes else 0,
                        "meets": boxes.meets if boxes else 0,
                    }
                )

    return SliceResult(
        kept_positions=tuple(sorted(kept)),
        total_positions=n,
        solver_calls=solver_calls,
        solver_seconds=solver_seconds,
    )
