"""Mahif core: the paper's contribution.

Historical what-if queries (Section 3), the naive algorithm (Section 4),
reenactment (Section 5), data slicing (Section 6), program slicing
(Sections 7–9), insert splitting (Section 10) and the engine facade that
wires them together (Algorithm 2).
"""

from .data_slicing import (
    DataSlicingConditions,
    compute_data_slicing,
    push_condition_through_query,
    slicing_selectivity,
)
from .delta import DatabaseDelta, RelationDelta, delta_query
from .dependency import dependency_slice
from .engine import (
    Mahif,
    MahifConfig,
    MahifResult,
    Method,
    answer,
    answer_batch,
)
from .hwq import (
    AlignedHistories,
    DeleteStatementMod,
    HistoricalWhatIfQuery,
    InsertStatementMod,
    Modification,
    ModificationError,
    Replace,
    align,
)
from .insert_split import InsertSplit, can_split, split_inserts
from .naive import NaiveResult, naive_what_if
from .program_slicing import (
    ProgramSlicingConfig,
    SliceResult,
    greedy_slice,
    is_slice,
)
from .provenance import (
    SourceTuple,
    evaluate_with_provenance,
    explain_delta,
)
from .analysis import DependencyAnalysis, build_dependency_graph
from .equivalence import (
    EquivalenceResult,
    EquivalenceVerdict,
    check_history_equivalence,
)
from .reenactment import (
    reenact_statement,
    reenactment_queries,
    reenactment_query,
)

__all__ = [
    "HistoricalWhatIfQuery", "Modification", "Replace",
    "InsertStatementMod", "DeleteStatementMod", "AlignedHistories",
    "align", "ModificationError",
    "DatabaseDelta", "RelationDelta", "delta_query",
    "naive_what_if", "NaiveResult",
    "reenact_statement", "reenactment_query", "reenactment_queries",
    "DataSlicingConditions", "compute_data_slicing", "slicing_selectivity",
    "push_condition_through_query",
    "ProgramSlicingConfig", "SliceResult", "greedy_slice", "is_slice",
    "dependency_slice",
    "InsertSplit", "split_inserts", "can_split",
    "Mahif", "MahifConfig", "MahifResult", "Method", "answer",
    "answer_batch",
    "SourceTuple", "evaluate_with_provenance", "explain_delta",
    "DependencyAnalysis", "build_dependency_graph",
    "EquivalenceVerdict", "EquivalenceResult", "check_history_equivalence",
]
