"""The engine answers without scipy: slicing's solver is pure Python.

A fresh interpreter imports ``repro``, answers one what-if with
dependency slicing and one with greedy slicing — each proves a statement
independent through the solver — and must not have loaded scipy.
"""

import pathlib
import subprocess
import sys

SCRIPT = """
import sys
from repro import (
    Database, HistoricalWhatIfQuery, History, Relation, Replace, Schema,
    parse_history, parse_statement,
)
from repro.core import Mahif, MahifConfig, Method

schema = Schema.of("k", "P", "F")
database = Database(
    {"R": Relation.from_rows(schema, [(k, k, 0) for k in range(50)])}
)
history = History(tuple(parse_history(
    "UPDATE R SET F = F + 1 WHERE P >= 5 AND P <= 9;"
    "UPDATE R SET F = F + 2 WHERE P >= 30 AND P <= 40;"
)))
query = HistoricalWhatIfQuery(
    history, database,
    (Replace(1, parse_statement(
        "UPDATE R SET F = F + 1 WHERE P >= 6 AND P <= 9"
    )),),
)
for algorithm in ("dependency", "greedy"):
    result = Mahif(MahifConfig(slicing_algorithm=algorithm)).answer(
        query, Method.R_PS_DS
    )
    assert result.slice_result.kept_positions == (1,), algorithm
    assert result.slice_result.solver_calls > 0, algorithm
print("scipy" in sys.modules)
"""


def test_answers_without_importing_scipy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    preamble = f"import sys; sys.path.insert(0, {str(src)!r})\n"
    result = subprocess.run(
        [sys.executable, "-c", preamble + SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "False"
