"""Execution backends (see DESIGN.md, "Execution backends").

This subpackage lowers the interpreted algebra to compiled form:

* :mod:`.expr_compile` — expression trees become generated Python
  functions over positional row tuples (no per-row dict bindings),
* :mod:`.vector_compile` — the one query compiler: the columnar
  evaluator every operator tree of the default ``"compiled"`` backend
  (``"vector"`` is its older name) runs on, under set and bag
  semantics — typed column arrays (see
  :mod:`repro.relational.columnar`) evaluated with whole-column kernels,
  bitmap selections and bloom-prefiltered coded hash joins, falling back
  to the compiled per-row closures wherever eager vectorized evaluation
  could diverge from interpreter semantics,
* :mod:`.plan_compile` — statement replay, the compiled backend's
  ``apply`` (set semantics, over the columnar evaluator's kernels, to a
  table-backed relation) and ``apply_bag`` (row-wise),
* :mod:`.sqlite_sql` / :mod:`.sql_backend` — the ``"sqlite"`` middleware
  backend: trees and statements are translated to SQL and executed
  server-side on an in-memory :mod:`sqlite3` database,
* :mod:`.backend` — the seam: one immutable :class:`Backend` per
  executor, looked up by name with :func:`resolve_backend`, through
  which :func:`repro.relational.algebra.evaluate_query`,
  ``Statement.apply`` and friends reach every executor above; compiled
  is what ``None`` means, the interpreter stays available as the
  differential-testing oracle.

The compilers import the algebra module, which itself dispatches into
this package at evaluation time — so everything except the import-light
backend seam is exported lazily (PEP 562) to keep imports acyclic.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

from .backend import (
    BACKEND_COMPILED,
    BACKEND_INTERPRETED,
    BACKEND_SQLITE,
    BACKEND_VECTOR,
    BACKENDS,
    Backend,
    resolve_backend,
)

#: Lazily exported name -> the submodule that defines it.
_LAZY = {
    # expression compilation
    "compile_expr": "expr_compile",
    "compile_predicate": "expr_compile",
    "compile_row": "expr_compile",
    "const_fingerprint": "expr_compile",
    "clear_expr_cache": "expr_compile",
    "expr_cache_info": "expr_compile",
    "plan_fingerprint": "expr_compile",
    # columnar evaluator
    "execute_plan_vector": "vector_compile",
    "execute_plan_vector_bag": "vector_compile",
    "split_equijoin_condition": "vector_compile",
    "vectorize_condition": "vector_compile",
    # sqlite middleware backend
    "SqlBackendError": "sql_backend",
    "execute_query_sqlite": "sql_backend",
    "execute_query_sqlite_bag": "sql_backend",
    "apply_statement_sqlite": "sql_backend",
    "apply_statement_sqlite_bag": "sql_backend",
    "clear_sqlite_cache": "sql_backend",
    "sqlite_cache_info": "sql_backend",
    "set_sqlite_cache_limit": "sql_backend",
}

__all__ = [
    # backend seam
    "BACKEND_COMPILED",
    "BACKEND_INTERPRETED",
    "BACKEND_SQLITE",
    "BACKEND_VECTOR",
    "BACKENDS",
    "resolve_backend",
    *_LAZY,
    # maintenance
    "clear_caches",
]


def clear_caches() -> None:
    """Drop the expression-compilation caches, the sqlite connection
    cache, and the columnarization cache."""
    from .. import columnar
    from . import expr_compile, sql_backend

    expr_compile.clear_expr_cache()
    sql_backend.clear_sqlite_cache()
    columnar.clear_columnar_cache()


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
