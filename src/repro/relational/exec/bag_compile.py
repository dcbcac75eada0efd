"""Streaming plan compilation for the bag (multiset) evaluator.

Mirror of :mod:`.plan_compile` for the N[X]-semiring specialization of
:mod:`repro.relational.bag`: pipelines stream ``(row, count)`` pairs,
projection preserves multiplicities, union is additive (a plain chain —
no breaker needed under bags), monus and the final materialization are
the only pipeline breakers, and joins multiply multiplicities with the
same hash-join fast path as the set compiler.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..algebra import (
    Difference,
    Join,
    Operator,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
    base_relations,
    output_schema,
)
from ..bag import BagRelation, apply_insert_bag
from ..expressions import TRUE
from ..schema import Schema, SchemaError, check_union_compatible
from ..statements import DeleteStatement, Statement, UpdateStatement
from .expr_compile import compile_predicate, compile_row
from .plan_compile import (
    _null_free,
    _schemas_key,
    compiled_update_row,
    plan_fingerprint,
    split_equijoin_condition,
)

__all__ = [
    "CompiledBagPlan",
    "compile_plan_bag",
    "execute_plan_bag",
    "apply_statement_compiled_bag",
    "clear_bag_plan_cache",
    "bag_plan_cache_info",
]

#: One streaming pass of ``(row, count)`` pairs over a bag (sub)plan.
CountedSource = Callable[[Any], Iterable[tuple[tuple, int]]]


class CompiledBagPlan:
    """A compiled operator tree under bag semantics.

    Pickles by recompiling from the operator tree and base schemas, like
    :class:`.plan_compile.CompiledPlan`.
    """

    __slots__ = (
        "schema", "operator", "base_schemas", "_source", "uses_hash_join"
    )

    def __init__(
        self,
        schema: Schema,
        operator: Operator,
        base_schemas: tuple[tuple[str, Schema], ...],
        source: CountedSource,
        uses_hash_join: bool,
    ) -> None:
        self.schema = schema
        self.operator = operator
        self.base_schemas = base_schemas
        self._source = source
        self.uses_hash_join = uses_hash_join

    def __reduce__(self):
        return (compile_plan_bag, (self.operator, dict(self.base_schemas)))

    def counted_rows(self, db: Any) -> Iterable[tuple[tuple, int]]:
        """Stream ``(row, count)`` pairs; a row may appear repeatedly."""
        return self._source(db)

    def execute(self, db: Any) -> BagRelation:
        counts: Counter = Counter()
        for row, count in self._source(db):
            counts[row] += count
        return BagRelation(self.schema, counts)


def _compile(
    op: Operator, db_schemas: Mapping[str, Schema]
) -> tuple[Schema, CountedSource, bool]:
    if isinstance(op, RelScan):
        schema = output_schema(op, dict(db_schemas))
        name = op.name

        def scan(db: Any) -> Iterable[tuple[tuple, int]]:
            return iter(db[name].multiplicities.items())

        return schema, scan, False

    if isinstance(op, Singleton):
        row = op.row

        def singleton(db: Any) -> Iterable[tuple[tuple, int]]:
            return iter(((row, 1),))

        return op.schema, singleton, False

    if isinstance(op, Select):
        child_schema, child, child_hash = _compile(op.input, db_schemas)
        predicate = compile_predicate(op.condition, child_schema)

        def select(db: Any) -> Iterator[tuple[tuple, int]]:
            for row, count in child(db):
                if predicate(row):
                    yield row, count

        return child_schema, select, child_hash

    if isinstance(op, Project):
        child_schema, child, child_hash = _compile(op.input, db_schemas)
        out_schema = Schema(tuple(name for _, name in op.outputs))
        row_fn = compile_row(tuple(expr for expr, _ in op.outputs), child_schema)

        def project(db: Any) -> Iterator[tuple[tuple, int]]:
            for row, count in child(db):
                yield row_fn(row), count

        return out_schema, project, child_hash

    if isinstance(op, Union):
        left_schema, left, lh = _compile(op.left, db_schemas)
        right_schema, right, rh = _compile(op.right, db_schemas)
        check_union_compatible(left_schema, right_schema, "bag union")

        def union_all(db: Any) -> Iterator[tuple[tuple, int]]:
            yield from left(db)
            yield from right(db)

        return left_schema, union_all, lh or rh

    if isinstance(op, Difference):
        left_schema, left, lh = _compile(op.left, db_schemas)
        right_schema, right, rh = _compile(op.right, db_schemas)
        check_union_compatible(left_schema, right_schema, "bag difference")

        def monus(db: Any) -> Iterator[tuple[tuple, int]]:
            counts: Counter = Counter()
            for row, count in left(db):
                counts[row] += count
            for row, count in right(db):
                if row in counts:
                    counts[row] -= count
            for row, count in counts.items():
                if count > 0:
                    yield row, count

        return left_schema, monus, lh or rh

    if isinstance(op, Join):
        left_schema, left, lh = _compile(op.left, db_schemas)
        right_schema, right, rh = _compile(op.right, db_schemas)
        schema = left_schema.concat(right_schema)
        left_keys, right_keys, residual_expr = split_equijoin_condition(
            op.condition, left_schema, right_schema
        )
        residual = (
            compile_predicate(residual_expr, schema)
            if residual_expr is not None and residual_expr != TRUE
            else None
        )

        if left_keys:
            left_key = compile_row(left_keys, left_schema)
            right_key = compile_row(right_keys, right_schema)

            def hash_join(db: Any) -> Iterator[tuple[tuple, int]]:
                table: dict[tuple, list[tuple[tuple, int]]] = {}
                setdefault = table.setdefault
                for row, count in right(db):
                    key = right_key(row)
                    if _null_free(key):
                        setdefault(key, []).append((row, count))
                get = table.get
                for lrow, lcount in left(db):
                    matches = get(left_key(lrow))
                    if matches is None:
                        continue
                    for rrow, rcount in matches:
                        combined = lrow + rrow
                        if residual is None or residual(combined):
                            yield combined, lcount * rcount

            return schema, hash_join, True

        def nested_loop_join(db: Any) -> Iterator[tuple[tuple, int]]:
            build = list(right(db))
            for lrow, lcount in left(db):
                for rrow, rcount in build:
                    combined = lrow + rrow
                    if residual is None or residual(combined):
                        yield combined, lcount * rcount

        return schema, nested_loop_join, lh or rh

    raise TypeError(f"unknown operator {op!r}")


@lru_cache(maxsize=1024)
def _compile_bag_cached(
    op: Operator,
    schemas_key: tuple[tuple[str, Schema], ...],
    fingerprint: tuple[str, ...],
) -> CompiledBagPlan:
    schemas = dict(schemas_key)
    schema, source, uses_hash_join = _compile(op, schemas)
    return CompiledBagPlan(schema, op, schemas_key, source, uses_hash_join)


def compile_plan_bag(
    op: Operator, db_schemas: Mapping[str, Schema]
) -> CompiledBagPlan:
    """Compile (with caching) an operator tree for bag evaluation."""
    key = _schemas_key(op, db_schemas)
    try:
        return _compile_bag_cached(op, key, plan_fingerprint(op))
    except TypeError:
        schema, source, uses_hash_join = _compile(op, dict(db_schemas))
        return CompiledBagPlan(schema, op, key, source, uses_hash_join)


def execute_plan_bag(op: Operator, db: Any) -> BagRelation:
    """Compile and run: the compiled backend's ``evaluate_bag``."""
    names = base_relations(op)
    schemas: dict[str, Schema] = {}
    for name in names:
        if name not in db:
            raise SchemaError(f"no relation named {name!r}")
        schemas[name] = db.schema_of(name)
    return compile_plan_bag(op, schemas).execute(db)


def apply_statement_compiled_bag(stmt: Statement, db: Any) -> Any:
    """The compiled backend's ``apply_bag``: the closures of
    :func:`~.plan_compile.apply_statement_compiled` over distinct rows,
    multiplicities carried along."""
    relation = db[stmt.relation]
    schema = relation.schema
    if isinstance(stmt, UpdateStatement):
        update_row = compiled_update_row(stmt, schema)
        counts: Counter = Counter()
        for row, count in relation.multiplicities.items():
            counts[update_row(row)] += count
    elif isinstance(stmt, DeleteStatement):
        predicate = compile_predicate(stmt.condition, schema)
        counts = {
            row: count
            for row, count in relation.multiplicities.items()
            if not predicate(row)
        }
    else:
        return apply_insert_bag(stmt, db, execute_plan_bag)
    return db.with_relation(stmt.relation, BagRelation(schema, counts))


def clear_bag_plan_cache() -> None:
    _compile_bag_cached.cache_clear()


def bag_plan_cache_info():
    return _compile_bag_cached.cache_info()
