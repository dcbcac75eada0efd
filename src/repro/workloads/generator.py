"""Parameterized transactional workloads (Section 13.2).

Histories are generated over one relation with the paper's knobs:

* ``U`` — number of statements in the history,
* ``D`` — percentage of updates *dependent* on the modified statement(s)
  (their predicate windows overlap the modification's window),
* ``T`` — percentage of tuples affected by each dependent update
  (``T0`` means under 1%),
* ``I`` / ``X`` — percentage of statements that are inserts / deletes,
* ``M`` — number of modifications in the HWQ.

The construction follows the paper's setup: statements are range-predicate
updates over a *predicate attribute* ``P`` that no statement modifies,
adding constants to a *value attribute* ``V``.  The modified statement is
the first statement; its hypothetical replacement shifts the predicate
window so some tuples are affected by exactly one version.  Dependent
updates overlap that window; independent updates live in a disjoint region
of ``P``'s value space (which is what makes their independence *provable*
by the solver's check).  For large ``T`` the disjoint region may be narrower
than ``T``; independent windows are then capped to what remains, which
preserves each figure's intent (``T`` controls the data volume the HWQ
touches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.hwq import HistoricalWhatIfQuery, Modification, Replace
from ..relational.database import Database
from ..relational.expressions import Attr, and_, ge, le
from ..relational.history import History
from ..relational.relation import Relation
from ..relational.statements import (
    DeleteStatement,
    InsertTuple,
    Statement,
    UpdateStatement,
)
from .datasets import DATASETS, dataset_by_name

__all__ = ["WorkloadSpec", "Workload", "build_workload"]


@dataclass(frozen=True)
class WorkloadSpec:
    """All the knobs of Section 13.2 plus dataset selection."""

    dataset: str = "taxi"
    rows: int = 20_000
    updates: int = 100
    dependent_pct: float = 10.0
    affected_pct: float = 10.0
    insert_pct: float = 0.0
    delete_pct: float = 0.0
    modifications: int = 1
    seed: int = 42
    relation_name: str = "data"

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.updates < 1:
            raise ValueError("need at least one statement")
        if not 0 <= self.insert_pct + self.delete_pct <= 60:
            raise ValueError("insert_pct + delete_pct must be within 0..60")
        if self.modifications < 1:
            raise ValueError("need at least one modification")


@dataclass(frozen=True)
class Workload:
    """A generated benchmark instance."""

    spec: WorkloadSpec
    database: Database
    history: History
    modifications: tuple[Modification, ...]
    predicate_attribute: str
    value_attribute: str

    @property
    def query(self) -> HistoricalWhatIfQuery:
        return HistoricalWhatIfQuery(
            self.history, self.database, self.modifications
        )


def _window_condition(attribute: str, low: float, high: float):
    return and_(ge(Attr(attribute), low), le(Attr(attribute), high))


def _quantile_window(
    sorted_values: np.ndarray, start_fraction: float, width_fraction: float
) -> tuple[float, float]:
    """Translate a quantile-space window into attribute-value bounds."""
    n = len(sorted_values)
    start_fraction = min(max(start_fraction, 0.0), 1.0)
    end_fraction = min(start_fraction + max(width_fraction, 0.0), 1.0)
    low_index = min(int(start_fraction * (n - 1)), n - 1)
    high_index = min(int(end_fraction * (n - 1)), n - 1)
    return float(sorted_values[low_index]), float(sorted_values[high_index])


def build_workload(spec: WorkloadSpec) -> Workload:
    """Generate the database, history and modifications for a spec."""
    rng = np.random.default_rng(spec.seed)
    relation = dataset_by_name(spec.dataset, spec.rows, seed=spec.seed)
    _, key_attr, predicate_attr, value_attr = DATASETS[spec.dataset]

    predicate_index = relation.schema.index_of(predicate_attr)
    sorted_values = np.sort(
        np.array([t[predicate_index] for t in relation], dtype=float)
    )

    t_frac = max(spec.affected_pct, 0.2) / 100.0
    # Quantile-space layout: modification window first, independent region
    # after a small gap.
    mod_start = 0.02
    mod_window = _quantile_window(sorted_values, mod_start, t_frac)
    # The hypothetical change shifts the window by a small fixed offset:
    # T controls how much data the HWQ touches, not how different the
    # hypothetical statement is (Figure 20's R+PS stays flat in T only
    # because the modification's reach does not blow up with T).
    shift = min(t_frac / 2.0, 0.04)
    shifted_window = _quantile_window(
        sorted_values, mod_start + shift, t_frac
    )
    dependent_region = (mod_start, mod_start + t_frac + shift)
    independent_start = min(dependent_region[1] + 0.05, 0.95)
    independent_space = max(1.0 - independent_start - 0.01, 0.02)
    independent_width = min(t_frac, independent_space / 2.0)

    n_statements = spec.updates
    n_inserts = int(round(n_statements * spec.insert_pct / 100.0))
    n_deletes = int(round(n_statements * spec.delete_pct / 100.0))
    n_updates = n_statements - n_inserts - n_deletes
    n_dependent = max(
        1, int(round(n_updates * spec.dependent_pct / 100.0))
    )
    n_dependent = min(n_dependent, n_updates)

    statements: list[Statement] = []
    dependent_positions: list[int] = []

    # Position 1: the statement the HWQ modifies.
    statements.append(
        UpdateStatement(
            spec.relation_name,
            {value_attr: Attr(value_attr) + 2},
            _window_condition(predicate_attr, *mod_window),
        )
    )
    dependent_positions.append(1)

    remaining_updates = n_updates - 1
    remaining_dependent = n_dependent - 1

    kinds: list[str] = []
    kinds.extend(["dep"] * remaining_dependent)
    kinds.extend(["indep"] * (remaining_updates - remaining_dependent))
    kinds.extend(["insert"] * n_inserts)
    kinds.extend(["delete"] * n_deletes)
    rng.shuffle(kinds)

    next_insert_key = spec.rows + 1
    schema = relation.schema
    for kind in kinds:
        if kind == "dep":
            start = rng.uniform(
                dependent_region[0], max(dependent_region[0], dependent_region[1] - t_frac)
            )
            window = _quantile_window(sorted_values, start, t_frac)
            delta = int(rng.choice([-2, -1, 1, 2, 3]))
            statements.append(
                UpdateStatement(
                    spec.relation_name,
                    {value_attr: Attr(value_attr) + delta},
                    _window_condition(predicate_attr, *window),
                )
            )
            dependent_positions.append(len(statements))
        elif kind == "indep":
            start = rng.uniform(
                independent_start, 1.0 - independent_width - 0.005
            )
            window = _quantile_window(
                sorted_values, start, independent_width
            )
            delta = int(rng.choice([-2, -1, 1, 2, 3]))
            statements.append(
                UpdateStatement(
                    spec.relation_name,
                    {value_attr: Attr(value_attr) + delta},
                    _window_condition(predicate_attr, *window),
                )
            )
        elif kind == "insert":
            row = _synthesize_row(schema, relation, next_insert_key, rng)
            next_insert_key += 1
            statements.append(InsertTuple(spec.relation_name, row))
        else:  # delete: a narrow independent window, so the table survives
            start = rng.uniform(
                independent_start, 1.0 - independent_width - 0.005
            )
            window = _quantile_window(
                sorted_values, start, min(0.002, independent_width)
            )
            statements.append(
                DeleteStatement(
                    spec.relation_name,
                    _window_condition(predicate_attr, *window),
                )
            )

    history = History(tuple(statements))

    # Modifications: the first replaces statement 1 with the shifted
    # window; additional ones shift other dependent updates.
    modifications: list[Modification] = [
        Replace(
            1,
            UpdateStatement(
                spec.relation_name,
                {value_attr: Attr(value_attr) + 2},
                _window_condition(predicate_attr, *shifted_window),
            ),
        )
    ]
    extra_targets = [p for p in dependent_positions[1:]]
    rng.shuffle(extra_targets)
    for position in extra_targets[: spec.modifications - 1]:
        original = history[position]
        assert isinstance(original, UpdateStatement)
        start = rng.uniform(
            dependent_region[0],
            max(dependent_region[0], dependent_region[1] - t_frac),
        )
        window = _quantile_window(sorted_values, start, t_frac)
        modifications.append(
            Replace(
                position,
                UpdateStatement(
                    spec.relation_name,
                    dict(original.set_clauses),
                    _window_condition(predicate_attr, *window),
                ),
            )
        )

    database = Database({spec.relation_name: relation})
    return Workload(
        spec=spec,
        database=database,
        history=history,
        modifications=tuple(modifications),
        predicate_attribute=predicate_attr,
        value_attribute=value_attr,
    )


def _synthesize_row(
    schema, relation: Relation, key: int, rng: np.random.Generator
) -> tuple[Any, ...]:
    """A fresh row for inserts: copy a random existing row, replace the
    key (first attribute) with a fresh one."""
    template = next(iter(relation.tuples))
    row = list(template)
    row[0] = key
    jitter_index = min(2, len(row) - 1)
    value = row[jitter_index]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        row[jitter_index] = value
    return tuple(row)
