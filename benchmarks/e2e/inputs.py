"""Workload inputs: four (database, history) pairs and their what-if streams.

A workload is defined by its database and history, which are generated
once from ``HISTORY_SEED``; ``--seed`` drives the stream of what-if
questions asked over them.  The split is deliberate: the cost of a
what-if depends strongly on *which* statements a generated history makes
dependent (``mixed_dml`` ranges from 0.17 s to 0.43 s per answer across
generator seeds), so a benchmark that redrew the history per seed could
not tell a 10% regression from a different draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core import Replace
from repro.relational.expressions import Attr, Const, and_, ge, le, walk
from repro.relational.sqlgen import statement_to_sql
from repro.relational.statements import UpdateStatement
from repro.workloads import WorkloadSpec, build_workload, dataset_by_name

HISTORY_SEED = 7
SIDE_ROWS = 1200
MIN_ROWS = 200
#: Window draws are stratified: each run of this many consecutive draws
#: covers the jitter range evenly.  A what-if's cost and the size of its
#: delta follow its window, so independent draws would make the medians
#: of two seeds differ by what each happened to draw, not by the program.
STRATA = 8
#: Stream lanes: each section of a run draws from its own generator, so
#: how many operations one section completes never shifts another's.
LANE_WARMUP, LANE_LIBRARY, LANE_SERVED, LANE_TRACED = range(4)


@dataclass(frozen=True)
class WorkloadDef:
    spec: WorkloadSpec
    #: Replace this statement instead of the generator's modifications.
    position: int | None = None


def _spec(**knobs) -> WorkloadSpec:
    return WorkloadSpec(seed=HISTORY_SEED, **knobs)


#: Sizes are the issue's, except ``exec_bound`` (40 000 -> 12 000 rows):
#: a run measures for 20 s, not 30 s, and still has to complete about a
#: hundred cold what-ifs.
WORKLOADS = {
    "slice_bound": WorkloadDef(
        _spec(dataset="taxi", rows=2400, updates=60,
              dependent_pct=10, affected_pct=10)
    ),
    "exec_bound": WorkloadDef(
        _spec(dataset="taxi", rows=12_000, updates=10,
              dependent_pct=100, affected_pct=50)
    ),
    "mixed_dml": WorkloadDef(
        _spec(dataset="tpcc", rows=8000, updates=40, dependent_pct=20,
              affected_pct=10, insert_pct=10, delete_pct=10,
              modifications=3)
    ),
    "service_mixed": WorkloadDef(
        _spec(dataset="taxi", rows=4800, updates=40,
              dependent_pct=10, affected_pct=10),
        position=30,
    ),
}


def _constant_of(stmt: UpdateStatement, attribute: str):
    """``c`` of the generator's ``SET attribute = attribute + c``."""
    return stmt.set_clauses[attribute].right.value


class Inputs:
    """One workload's database, history and base modifications."""

    def __init__(self, name: str, scale: float = 1.0) -> None:
        definition = WORKLOADS[name]
        spec = replace(
            definition.spec,
            rows=max(MIN_ROWS, int(definition.spec.rows * scale)),
        )
        workload = build_workload(spec)
        side = dataset_by_name(
            "ycsb", max(MIN_ROWS, int(SIDE_ROWS * scale)), seed=HISTORY_SEED
        )
        self.name = name
        self.scale = scale
        self.relation = spec.relation_name
        self.database = workload.database.with_relation("side", side)
        self.history = workload.history
        self.predicate = workload.predicate_attribute
        self.value = workload.value_attribute
        self.jitter = spec.affected_pct / 200.0  # the issue's +-T/2
        self.side_rows = len(side)
        index = workload.database[self.relation].schema.index_of(
            self.predicate
        )
        self.sorted_values = np.sort(
            np.array(
                [t[index] for t in workload.database[self.relation]],
                dtype=float,
            )
        )
        if definition.position is None:
            self.base = workload.modifications
        else:
            self.base = (
                Replace(
                    definition.position, self.history[definition.position]
                ),
            )

    def between(self, low: float, high: float):
        """The generator's window condition, ``low <= P <= high``."""
        return and_(
            ge(Attr(self.predicate), low), le(Attr(self.predicate), high)
        )

    def window(self, start: float, width: float):
        """The condition selecting quantiles ``start .. start + width``."""
        last = len(self.sorted_values) - 1
        start = min(max(start, 0.0), 1.0 - width)
        return self.between(
            float(self.sorted_values[int(start * last)]),
            float(self.sorted_values[int((start + width) * last)]),
        )

    def quantiles_of(self, condition) -> tuple[float, float]:
        """Where a generated ``low <= P <= high`` window sits, as
        (start, width) in quantile space."""
        bounds = [
            node.value for node in walk(condition) if isinstance(node, Const)
        ]
        last = len(self.sorted_values) - 1
        start = np.searchsorted(self.sorted_values, min(bounds), "left")
        end = np.searchsorted(self.sorted_values, max(bounds), "right") - 1
        return start / last, max(end - start, 1) / last

    def side_update(self, i: int) -> UpdateStatement:
        """An append that touches no relation any what-if delta names."""
        low = 1 + (10 * i) % self.side_rows
        return UpdateStatement(
            "side",
            {"field0": Attr("field0") + 1},
            and_(ge(Attr("ycsb_key"), low), le(Attr("ycsb_key"), low + 9)),
        )

    def data_update(self, i: int) -> UpdateStatement:
        """An append on the what-if relation, in the generator's
        independent region (upper quantiles) so it stays sliceable."""
        return UpdateStatement(
            self.relation,
            {self.value: Attr(self.value) + 1 + i % 3},
            self.window(0.95 + 0.004 * (i % 10), 0.01),
        )


class WhatIfStream:
    """Distinct what-ifs over one history, reproducible from the seed.

    Every replaced statement keeps its position and its SET attribute;
    its window is re-drawn within +-T/2 (quantile space) of the base
    modification's and its constant from 1..9, never the original
    statement's constant — so no answer is empty and, served, every
    cached answer is droppable by an append on the relation.
    """

    def __init__(self, inputs: Inputs, seed: int, lane: int) -> None:
        self.inputs = inputs
        self.rng = np.random.default_rng([seed, lane])
        self.seen: set[tuple] = set()
        #: Per base modification: position, relation, window (start,
        #: width), the constants to draw from, strata not yet used.
        self._bases = []
        for base in inputs.base:
            original = inputs.history[base.position]
            taken = _constant_of(original, inputs.value)
            self._bases.append(
                (
                    base.position,
                    original.relation,
                    inputs.quantiles_of(base.statement.condition),
                    [c for c in range(1, 10) if c != taken],
                    [],
                )
            )

    def _jitter(self, strata: list[int]) -> float:
        """A draw from -jitter..+jitter, from the next unused stratum."""
        if not strata:
            strata.extend(self.rng.permutation(STRATA))
        share = (strata.pop() + self.rng.uniform()) / STRATA
        return (2.0 * share - 1.0) * self.inputs.jitter

    def next(self) -> tuple[Replace, ...]:
        inputs = self.inputs
        # Windows snap to row values, so a table holds finitely many
        # distinct what-ifs (about 2 000 for 2 400 rows); a run asks for
        # a few hundred.
        for _ in range(1000):
            modifications = tuple(
                Replace(
                    position,
                    UpdateStatement(
                        relation,
                        {
                            inputs.value: Attr(inputs.value)
                            + int(self.rng.choice(constants))
                        },
                        inputs.window(start + self._jitter(strata), width),
                    ),
                )
                for position, relation, (start, width), constants, strata
                in self._bases
            )
            key = tuple(
                (m.position, statement_to_sql(m.statement))
                for m in modifications
            )
            if key not in self.seen:
                self.seen.add(key)
                return modifications
        raise RuntimeError("no what-if left that was not asked before")


def spec_of(modifications) -> dict:
    """The service's wire form of a modification tuple."""
    return {
        "replace": [
            [m.position, statement_to_sql(m.statement)]
            for m in modifications
        ]
    }
