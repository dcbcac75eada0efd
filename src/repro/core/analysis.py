"""Static history analysis: statement dependency graphs.

The paper's conclusion points at causal relationships between the updates
of a history as future work; the building block is knowing *which
statements can interact* — exactly the question the Section-9 dependency
condition answers pairwise.  This module lifts it to a whole-history
**dependency graph** (networkx ``DiGraph``): an edge ``i -> j`` (i < j)
means statement ``j`` may read a tuple version statement ``i`` wrote, as
witnessed by a satisfiable overlap formula over the compressed database.

Uses: visualizing workloads, sizing slices before running them, and the
workload generator's tests (generated "independent" updates must come out
isolated here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import networkx as nx

from ..relational.database import Database
from ..relational.expressions import and_, variables_of
from ..relational.history import History
from ..relational.schema import Schema
from ..relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    Statement,
    UpdateStatement,
)
from ..solver.session import SolverSession
from ..symbolic.compress import CompressionConfig, compress_relation
from ..symbolic.symexec import (
    DefiningConjuncts,
    run_history_single_tuple,
)
from ..symbolic.vctable import SymbolicTuple
from .dependency import _condition_over

__all__ = ["DependencyAnalysis", "build_dependency_graph"]


@dataclass(frozen=True)
class DependencyAnalysis:
    """Result of the history analysis."""

    graph: nx.DiGraph
    history: History

    def interacting_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.graph.edges())

    def independent_statements(self) -> list[int]:
        """Statements with no interaction edges at all."""
        return sorted(
            node
            for node in self.graph.nodes()
            if self.graph.degree(node) == 0
        )

    def reachable_from(self, position: int) -> set[int]:
        """Statements whose effect may transitively depend on
        ``position`` (the forward cone — the shape of a slice)."""
        return set(nx.descendants(self.graph, position)) | {position}

    def summary(self) -> str:
        nodes = self.graph.number_of_nodes()
        edges = self.graph.number_of_edges()
        isolated = len(self.independent_statements())
        return (
            f"{nodes} statements, {edges} may-interact edges, "
            f"{isolated} isolated"
        )


def _statement_kind(stmt: Statement) -> str:
    if isinstance(stmt, UpdateStatement):
        return "update"
    if isinstance(stmt, DeleteStatement):
        return "delete"
    if isinstance(stmt, InsertTuple):
        return "insert"
    return "insert-query"


def build_dependency_graph(
    history: History,
    database: Database,
    compression: CompressionConfig | None = None,
) -> DependencyAnalysis:
    """Build the may-interact graph of a history over a database.

    For each relation, the history is executed symbolically once; then for
    every pair ``i < j`` of update/delete statements on that relation the
    overlap formula ``Φ_D ∧ defs ∧ θ_i(t_{i-1}) ∧ θ_j(t_{j-1})`` is
    checked.  Inserts interact with nothing here (their tuples are fresh;
    the Section-10 split handles them), and INSERT..SELECT statements are
    conservatively connected to everything sharing a relation.
    """
    compression = compression or CompressionConfig()
    graph = nx.DiGraph()
    for position in history.positions():
        stmt = history[position]
        graph.add_node(
            position,
            kind=_statement_kind(stmt),
            relation=stmt.relation,
        )

    relations = history.target_relations()
    for relation in sorted(relations):
        if relation not in database:
            continue
        schema = database.schema_of(relation)
        positions = [
            p
            for p, s in history.restrict_to_relation(relation)
            if isinstance(s, (UpdateStatement, DeleteStatement))
        ]
        query_positions = [
            p
            for p, s in history.restrict_to_relation(relation)
            if isinstance(s, InsertQuery)
        ]
        # conservative edges for inserts-with-queries
        for qp in query_positions:
            for p, _ in history.restrict_to_relation(relation):
                if p < qp:
                    graph.add_edge(p, qp)
                elif p > qp:
                    graph.add_edge(qp, p)
        if len(positions) < 2:
            continue

        input_tuple = SymbolicTuple.fresh(schema, prefix=f"ana_{relation}")
        phi_d = compress_relation(
            database[relation], input_tuple, compression
        )
        try:
            run = run_history_single_tuple(
                history, relation, schema, input_tuple,
                prefix=f"an_{relation}",
            )
        # repro-lint: allow[broad-swallow] -- degrades to conservative pairwise edges, never wrong
        except Exception:
            # histories with inserts on this relation: connect pairwise
            # conservatively and move on
            for i in positions:
                for j in positions:
                    if i < j:
                        graph.add_edge(i, j)
            continue

        session = SolverSession(phi_d)
        phi_d_variables = variables_of(phi_d)
        defining = DefiningConjuncts(run.global_conjuncts)
        for index, i in enumerate(positions):
            tuple_i, local_i = run.steps[i - 1]
            theta_i = and_(
                local_i, _condition_over(history[i], tuple_i)
            )
            for j in positions[index + 1 :]:
                tuple_j, local_j = run.steps[j - 1]
                theta_j = and_(
                    local_j, _condition_over(history[j], tuple_j)
                )
                core = and_(theta_i, theta_j)
                defs = defining.needed_by(
                    variables_of(core) | phi_d_variables
                )
                if not session.check(core, defs).is_unsat:
                    graph.add_edge(i, j)

    return DependencyAnalysis(graph=graph, history=history)
