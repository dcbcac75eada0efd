"""The execution-backend seam: the one module that knows the backends.

Mahif is a middleware — every reenactment query and every replayed
statement crosses exactly one boundary, to whatever executes it.  A
:class:`Backend` is that boundary for one executor: evaluate an operator
tree, apply a statement, each under set and bag semantics.  Three exist,
under four names:

* ``"compiled"`` (what ``None`` means everywhere) — the rule is *what
  is executed*.  Every operator tree, under set and bag semantics, runs
  on the one query compiler, the columnar evaluator
  (:mod:`.vector_compile`): whole-column kernels over typed NumPy
  columns wherever eager array evaluation provably equals the
  interpreter, expression trees lowered to Python closures over
  positional row tuples elsewhere.  A set-semantics statement is
  reenacted over the relation's table with the same kernels
  (:mod:`.plan_compile`), so a replayed version *is* a columnar table
  (a table-backed ``Relation``) that no query columnarizes again; a
  bag statement replays row-wise.  The query of an ``INSERT … SELECT``
  inside a replayed statement is an operator tree, so it too runs
  columnar,
* ``"vector"`` — the same :class:`Backend` object as ``"compiled"``,
  under the older name the benchmark's diagnostic pass still asks for,
* ``"interpreted"`` — the tree-walking reference semantics in
  :mod:`repro.relational.algebra`, :mod:`~repro.relational.statements`
  and :mod:`~repro.relational.bag`, kept as the differential oracle,
* ``"sqlite"`` — the middleware backend of the paper's architecture:
  trees and statements translated to SQL and executed server-side on an
  in-memory :mod:`sqlite3` database (:mod:`.sql_backend`).

There is no ambient choice: a backend is named by a call argument
(``evaluate_query(op, db, backend="sqlite")``, ``stmt.apply(db,
backend=...)``) or by ``MahifConfig(backend=...)``, which the engine
hands down its pipeline explicitly.  Code with neither — the history
store, ``VersionedDatabase``, ad-hoc ``stmt.apply(db)`` — runs compiled.
Nothing here is mutated after import, so concurrent engines cannot
observe each other's choice.

This module is import-light on purpose: the algebra imports it at module
load, while the executors (which import the algebra) are only pulled in
when a backend's entry point is first called.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from types import MappingProxyType
from typing import Any, Callable, Mapping

__all__ = [
    "BACKEND_COMPILED",
    "BACKEND_INTERPRETED",
    "BACKEND_SQLITE",
    "BACKEND_VECTOR",
    "BACKENDS",
    "Backend",
    "resolve_backend",
]

BACKEND_COMPILED = "compiled"
BACKEND_INTERPRETED = "interpreted"
BACKEND_SQLITE = "sqlite"
BACKEND_VECTOR = "vector"


@dataclass(frozen=True)
class Backend:
    """One executor behind the seam.

    ``evaluate(op, db)`` / ``evaluate_bag(op, bag_db)`` run an operator
    tree to a ``Relation`` / ``BagRelation``; ``apply(stmt, db)`` /
    ``apply_bag(stmt, bag_db)`` run one statement to the next database.
    ``evaluate_pair(query_h, query_m, db)`` runs a reenactment query
    pair to its two results, in the form the executor produces them:
    two :class:`~repro.relational.columnar.ColumnarTable` s from the
    columnar evaluator — rows unmaterialized, duplicates kept, for
    :meth:`repro.core.delta.RelationDelta.of_results` to compare in one
    sort — and two ``Relation`` s (``evaluate`` twice) from the others.
    ``pool_kind`` is what a worker pool for this backend is made of:
    ``"process"`` for the in-process executors (pure Python does not
    parallelize under the GIL), ``"thread"`` for sqlite (the C engine
    releases the GIL and its connection cache is per-thread).
    """

    name: str
    pool_kind: str
    evaluate: Callable[[Any, Any], Any]
    evaluate_bag: Callable[[Any, Any], Any]
    apply: Callable[[Any, Any], Any]
    apply_bag: Callable[[Any, Any], Any]
    evaluate_pair: Callable[[Any, Any, Any], tuple[Any, Any]]


_RELATIONAL = __name__.rsplit(".", 2)[0]


def _late(module: str, function: str) -> Callable[..., Any]:
    """``repro.relational.<module>.<function>``, imported when called:
    the executors import the algebra, which imports this module."""
    path = f"{_RELATIONAL}.{module}"

    def entry_point(*args: Any) -> Any:
        return getattr(import_module(path), function)(*args)

    return entry_point


def _twice(evaluate: Callable[[Any, Any], Any]):
    """``evaluate_pair`` of an executor whose results are relations."""

    def evaluate_pair(query_h: Any, query_m: Any, db: Any):
        return evaluate(query_h, db), evaluate(query_m, db)

    return evaluate_pair


_COMPILED = Backend(
    BACKEND_COMPILED,
    "process",
    _late("exec.vector_compile", "execute_plan_vector"),
    _late("exec.vector_compile", "execute_plan_vector_bag"),
    _late("exec.plan_compile", "apply_statement_compiled"),
    _late("exec.plan_compile", "apply_statement_compiled_bag"),
    _late("exec.vector_compile", "execute_pair_vector"),
)

_BACKENDS: Mapping[str, Backend] = MappingProxyType(
    {
        BACKEND_COMPILED: _COMPILED,
        BACKEND_INTERPRETED: Backend(
            BACKEND_INTERPRETED,
            "process",
            _late("algebra", "evaluate_query_interpreted"),
            _late("bag", "evaluate_query_bag_interpreted"),
            _late("statements", "apply_statement_interpreted"),
            _late("bag", "apply_statement_bag_interpreted"),
            _twice(_late("algebra", "evaluate_query_interpreted")),
        ),
        BACKEND_SQLITE: Backend(
            BACKEND_SQLITE,
            "thread",
            _late("exec.sql_backend", "execute_query_sqlite"),
            _late("exec.sql_backend", "execute_query_sqlite_bag"),
            _late("exec.sql_backend", "apply_statement_sqlite"),
            _late("exec.sql_backend", "apply_statement_sqlite_bag"),
            _twice(_late("exec.sql_backend", "execute_query_sqlite")),
        ),
        BACKEND_VECTOR: _COMPILED,
    }
)

BACKENDS = tuple(_BACKENDS)


def resolve_backend(name: str | None = None) -> Backend:
    """The :class:`Backend` called ``name``; ``None`` is ``"compiled"``,
    and ``"vector"`` is the same object under its older name."""
    try:
        return _BACKENDS[BACKEND_COMPILED if name is None else name]
    except (KeyError, TypeError):  # TypeError: an unhashable "name"
        raise ValueError(
            f"unknown execution backend {name!r}; expected one of "
            f"{BACKENDS}"
        ) from None
