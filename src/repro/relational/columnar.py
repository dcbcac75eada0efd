"""Columnar storage for relations: typed columns with a cheap tuple view.

The columnar evaluator (:mod:`repro.relational.exec.vector_compile` —
what the default ``"compiled"`` backend and ``"vector"`` run a *query*
on; statements replay row-wise) evaluates operators as whole-column
kernels instead of streaming Python tuples row-at-a-time.  This module
supplies its data layer:

* :class:`Column` — one attribute's values as a typed array.  Clean
  columns become ``int64`` / ``float64`` / ``bool_`` / object-of-``str``
  arrays plus an optional validity bitmap (``None`` values are replaced
  by a fill and masked out), and remember the values they were built
  from as an object array beside the typed one, so a cell that passes
  through a plan comes back as the stored object; anything mixed-type,
  NaN-bearing, or exotic stays a plain Python list (tag ``"object"``)
  that kernels refuse and per-row fallbacks consume verbatim.
* :class:`ColumnarTable` — a schema plus one column per attribute and an
  optional multiplicity vector (bag semantics), with ``tuples()`` /
  ``to_relation()`` / ``to_bag()`` views so the interpreter oracle and
  the store codec keep consuming row tuples unchanged.
* :func:`columnar_of_relation` / :func:`columnar_of_bag` — per-object
  columnarization caches on object identity
  (:class:`~repro.relational.identity_memo.IdentityMemo`:
  :class:`~repro.relational.bag.BagRelation` is unhashable, so entries
  are keyed by ``id`` and evicted by weak finalizers).

Exactness rules (what keeps the columnar evaluator bit-identical to the
interpreter, enforced here and rechecked by the kernels):

* ints only become ``int64`` when every ``|v| < 2**63`` (materialization
  via ``tolist()`` is exact); kernels additionally require ``< 2**53``
  before mixing a column with floats, because NumPy compares int/float
  pairs through a ``float64`` cast while Python compares them exactly;
* a float column containing NaN stays list-backed: distinct NaN
  *objects* are distinct set/dict members (``hash(nan)`` is id-based),
  so NaN values must survive columnarization with identity intact;
* mixed int/float/bool columns stay list-backed rather than promoting,
  so ``1`` never silently becomes ``1.0``.
"""

from __future__ import annotations

from types import NoneType
from typing import Any, Collection, Iterable, Sequence

import numpy as _np

from ..obs.metrics import global_registry
from .bag import BagRelation
from .identity_memo import IdentityMemo
from .relation import Relation
from .schema import Schema

__all__ = [
    "Column",
    "ColumnarTable",
    "column_from_values",
    "column_values",
    "columnar_of_relation",
    "columnar_of_bag",
    "clear_columnar_cache",
    "columnar_cache_info",
    "MEMO_OUTCOMES",
    "INT64_SAFE_BOUND",
    "FLOAT_EXACT_INT_BOUND",
]

#: ints with ``|v| >= 2**63`` cannot live in an int64 array at all.
INT64_SAFE_BOUND = 2 ** 63
#: ints with ``|v| >= 2**53`` lose exactness under a float64 cast.
FLOAT_EXACT_INT_BOUND = 2 ** 53


class Column:
    """One attribute's values: a typed array plus a validity mask.

    ``tag`` is one of ``"int"``, ``"float"``, ``"bool"``, ``"str"``,
    ``"object"``.  Array-backed columns (``is_array``) hold fills at
    invalid slots (0 / 0.0 / False / ``""``) with ``valid`` the bitmap
    (``None`` means all-valid); list-backed columns hold the original
    Python objects verbatim, ``None`` inline, and ``valid`` is always
    ``None``.  ``int_bound`` is a static bound on ``max(|v|)`` for int
    columns (0 for empty), used by the kernels' exactness guards.
    ``objects`` is the object array of the values an array-backed
    column was built from (``None`` inline), or ``None`` for a column a
    kernel computed: it travels through ``take`` / ``concat_columns``
    and is what :func:`column_values` hands back, so a stored cell that
    passes through a plan is the stored object, not a fresh copy.
    """

    __slots__ = ("tag", "data", "valid", "int_bound", "objects")

    def __init__(self, tag: str, data: Any, valid: Any = None,
                 int_bound: int = 0, objects: Any = None) -> None:
        self.tag = tag
        self.data = data
        self.valid = valid
        self.int_bound = int_bound
        self.objects = objects

    @property
    def is_array(self) -> bool:
        return isinstance(self.data, _np.ndarray)

    def __len__(self) -> int:
        return len(self.data)

    def take(self, indices: Any) -> "Column":
        """Gather rows (``indices`` is an int array or list)."""
        if self.is_array:
            return Column(
                self.tag,
                self.data[indices],
                None if self.valid is None else self.valid[indices],
                self.int_bound,
                None if self.objects is None else self.objects[indices],
            )
        data = self.data
        return Column(
            self.tag, [data[i] for i in indices], None, self.int_bound
        )


_DTYPES = {"int": _np.int64, "float": _np.float64, "bool": _np.bool_}
_FILLS = {"int": 0, "float": 0.0, "bool": False, "str": ""}


def _tag_of_type(kind: type) -> str | None:
    """The scalar tag of a value type (``bool`` is not an ``int`` here)."""
    for base, tag in ((bool, "bool"), (int, "int"), (float, "float"),
                      (str, "str")):
        if issubclass(kind, base):
            return tag
    return None


def column_from_values(values: Sequence[Any]) -> Column:
    """Sniff a value sequence into the tightest exact column, in one
    column-wise pass: the set of value types decides the tag, NumPy
    converts the values, and the range rules are checked on the array.

    Promotion never crosses type groups: a column is array-typed only
    when every non-NULL value is the same scalar type (bools are *not*
    folded into ints), NaN-free for floats, and within ``int64`` range
    for ints; everything else is preserved verbatim in a list-backed
    ``"object"`` column.
    """
    values = list(values)
    types = set(map(type, values))
    has_null = NoneType in types
    types.discard(NoneType)
    tags = set(map(_tag_of_type, types))
    tag = tags.pop() if len(tags) == 1 else None
    if tag is None:  # empty, all-NULL, mixed or exotic
        return Column("object", values)
    objects = _np.array(values, dtype=object)
    valid = None
    filled = objects
    if has_null:
        valid = objects != None  # noqa: E711 - elementwise on the array
        filled = objects.copy()
        filled[~valid] = _FILLS[tag]
    if tag == "str":  # object array: values stay Python strings
        return Column("str", filled, valid, 0, objects)
    try:
        data = filled.astype(_DTYPES[tag])
    except OverflowError:  # an int beyond int64
        return Column("object", values)
    bound = 0
    if tag == "int":
        low, high = int(data.min()), int(data.max())
        bound = max(-low, high)
        if bound >= INT64_SAFE_BOUND:  # -2**63 fits int64, |v| does not
            return Column("object", values)
    elif tag == "float" and _np.isnan(data).any():
        return Column("object", values)  # NaN: identity-bearing
    return Column(tag, data, valid, bound, objects)


def column_values(col: Column) -> list:
    """The column as a list of Python values (``None`` at invalid slots):
    the values it was built from when it remembers them."""
    if not col.is_array:
        return list(col.data)
    if col.objects is not None:
        return col.objects.tolist()
    data = col.data.tolist()
    if col.valid is None:
        return data
    return [
        v if ok else None for v, ok in zip(data, col.valid.tolist())
    ]


def concat_columns(a: Column, b: Column) -> Column:
    """Stack two columns (union); mismatched tags re-sniff to preserve
    value types exactly rather than promoting through a NumPy cast."""
    if a.is_array and b.is_array and a.tag == b.tag:
        data = _np.concatenate([a.data, b.data])
        if a.valid is None and b.valid is None:
            valid = None
        else:
            valid = _np.concatenate([
                a.valid if a.valid is not None
                else _np.ones(len(a.data), dtype=bool),
                b.valid if b.valid is not None
                else _np.ones(len(b.data), dtype=bool),
            ])
        objects = None
        if a.objects is not None and b.objects is not None:
            objects = _np.concatenate([a.objects, b.objects])
        return Column(
            a.tag, data, valid, max(a.int_bound, b.int_bound), objects
        )
    return column_from_values(column_values(a) + column_values(b))


class ColumnarTable:
    """A schema, one :class:`Column` per attribute, and (for bags) a
    parallel multiplicity list.

    Row order is meaningful: operators preserve it so the vector
    backend's per-row fallbacks hit rows in exactly the order the
    compiled pipelines would (identical first-error behaviour)."""

    __slots__ = ("schema", "columns", "nrows", "mult")

    def __init__(self, schema: Schema, columns: list[Column], nrows: int,
                 mult: list[int] | None = None) -> None:
        self.schema = schema
        self.columns = columns
        self.nrows = nrows
        self.mult = mult

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Collection[tuple],
        mult: Iterable[int] | None = None,
    ) -> "ColumnarTable":
        if rows:  # one transpose, then one pass per column
            columns = [column_from_values(values) for values in zip(*rows)]
        else:
            columns = [Column("object", []) for _ in range(schema.arity)]
        return cls(
            schema, columns, len(rows),
            None if mult is None else list(mult),
        )

    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnarTable":
        return cls.from_rows(relation.schema, relation.tuples)

    @classmethod
    def from_bag(cls, bag: BagRelation) -> "ColumnarTable":
        counts = bag.multiplicities
        return cls.from_rows(bag.schema, counts.keys(), counts.values())

    def tuples(self) -> list[tuple]:
        """Materialize the rows as Python tuples, in table order."""
        if not self.columns:
            return [()] * self.nrows
        return list(zip(*[column_values(c) for c in self.columns]))

    def take(self, indices: Any) -> "ColumnarTable":
        """Gather a row subset/permutation (indices array or list)."""
        idx_list = None
        if self.mult is not None or not self.columns:
            idx_list = (
                indices.tolist() if isinstance(indices, _np.ndarray)
                else list(indices)
            )
        mult = (
            None if self.mult is None
            else [self.mult[i] for i in idx_list]
        )
        nrows = len(idx_list) if idx_list is not None else len(indices)
        return ColumnarTable(
            self.schema,
            [c.take(indices) for c in self.columns],
            nrows,
            mult,
        )

    def to_relation(self) -> Relation:
        return Relation(self.schema, frozenset(self.tuples()))

    def to_bag(self) -> BagRelation:
        counts: dict[tuple, int] = {}
        mult = self.mult if self.mult is not None else [1] * self.nrows
        for row, count in zip(self.tuples(), mult):
            counts[row] = counts.get(row, 0) + count
        return BagRelation(self.schema, counts)


# -- columnarization caches --------------------------------------------------

_RELATIONS = IdentityMemo()
_BAGS = IdentityMemo()


#: hit / miss counts of the two memos above (``/metrics`` and the
#: engine's ``execute`` span read them).
MEMO_OUTCOMES = global_registry().counter(
    "mahif_columnar_memo_total",
    "Columnar views asked of a stored relation or bag by outcome: hit "
    "(the table is remembered on the object) or miss (the object was "
    "columnarized).",
    ("outcome",),
)


def _cached_table(memo: IdentityMemo, obj: Any, build) -> ColumnarTable:
    table = memo.find(obj)
    if table is not None:
        MEMO_OUTCOMES.inc(outcome="hit")
        return table
    MEMO_OUTCOMES.inc(outcome="miss")
    return memo.remember(obj, None, build(obj))


def columnar_of_relation(relation: Relation) -> ColumnarTable:
    """The cached columnar view of a stored set relation."""
    return _cached_table(_RELATIONS, relation, ColumnarTable.from_relation)


def columnar_of_bag(bag: BagRelation) -> ColumnarTable:
    """The cached columnar view of a stored bag relation."""
    return _cached_table(_BAGS, bag, ColumnarTable.from_bag)


def clear_columnar_cache() -> None:
    _RELATIONS.clear()
    _BAGS.clear()


def columnar_cache_info() -> dict[str, int]:
    return {"relations": len(_RELATIONS), "bags": len(_BAGS)}
