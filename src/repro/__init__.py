"""repro — a reproduction of "Efficient Answering of Historical What-if
Queries" (Campbell, Arab, Glavic; SIGMOD 2022).

The package implements **Mahif**, a middleware answering *historical
what-if queries*: "how would the database look today had this past update
been different?"  The answer is computed by *reenacting* the original and
the hypothetically-modified transactional history as queries and taking
the symmetric difference, optimized by *data slicing* (filter provably
unaffected tuples) and *program slicing* (drop provably irrelevant
statements, proved via symbolic execution over VC-tables and a
satisfiability check that stands in for the paper's MILP).

Quickstart::

    from repro import (
        Database, Relation, Schema, History, parse_history,
        HistoricalWhatIfQuery, Replace, Mahif, Method,
    )

    db = Database({"Orders": Relation.from_rows(
        Schema.of("ID", "Customer", "Country", "Price", "ShippingFee"),
        [(11, "Susan", "UK", 20, 5), (12, "Alex", "UK", 50, 5)])})
    history = History(tuple(parse_history(
        "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 50;")))
    new_u1 = parse_history(
        "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 60;")[0]
    query = HistoricalWhatIfQuery(history, db, (Replace(1, new_u1),))
    print(Mahif().answer(query, Method.R_PS_DS).delta.pretty())

See DESIGN.md for the paper-to-module inventory; the reproduced
evaluation (EXPERIMENTS.md) is generated by ``python
benchmarks/report.py``, not checked in.
"""

from .core import (
    AlignedHistories,
    DatabaseDelta,
    DeleteStatementMod,
    HistoricalWhatIfQuery,
    InsertStatementMod,
    Mahif,
    MahifConfig,
    MahifResult,
    Method,
    Modification,
    RelationDelta,
    Replace,
    align,
    answer,
    naive_what_if,
)
from .relational import (
    Database,
    DeleteStatement,
    History,
    InsertQuery,
    InsertTuple,
    Relation,
    Schema,
    Statement,
    UpdateStatement,
    VersionedDatabase,
    parse_expression,
    parse_history,
    parse_statement,
)
from .store import HistoryStore

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # relational substrate
    "Schema", "Relation", "Database", "VersionedDatabase", "History",
    "Statement", "UpdateStatement", "DeleteStatement", "InsertTuple",
    "InsertQuery", "parse_expression", "parse_statement", "parse_history",
    # core
    "HistoricalWhatIfQuery", "Modification", "Replace",
    "InsertStatementMod", "DeleteStatementMod", "AlignedHistories",
    "align", "DatabaseDelta", "RelationDelta",
    "Mahif", "MahifConfig", "MahifResult", "Method", "answer",
    "naive_what_if",
    # persistence (the service package is imported on demand: `repro.service`)
    "HistoryStore",
]
