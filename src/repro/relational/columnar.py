"""Columnar storage for relations: typed columns with a cheap tuple view.

The ``"vector"`` execution backend (see
:mod:`repro.relational.exec.vector_compile`) evaluates operators as
whole-column kernels instead of streaming Python tuples row-at-a-time.
This module supplies its data layer:

* :class:`Column` — one attribute's values as a typed array.  With NumPy
  available, clean columns become ``int64`` / ``float64`` / ``bool_`` /
  object-of-``str`` arrays plus an optional validity bitmap (``None``
  values are replaced by a fill and masked out); anything mixed-type,
  NaN-bearing, or exotic stays a plain Python list (tag ``"object"``)
  that kernels refuse and per-row fallbacks consume verbatim.  Without
  NumPy every column is list-backed but keeps its sniffed type tag.
* :class:`ColumnarTable` — a schema plus one column per attribute and an
  optional multiplicity vector (bag semantics), with ``tuples()`` /
  ``to_relation()`` / ``to_bag()`` views so the interpreter oracle and
  the store codec keep consuming row tuples unchanged.
* :func:`columnar_of_relation` / :func:`columnar_of_bag` — per-object
  columnarization caches on object identity
  (:class:`~repro.relational.identity_memo.IdentityMemo`:
  :class:`~repro.relational.bag.BagRelation` is unhashable, so entries
  are keyed by ``id`` and evicted by weak finalizers).
* :func:`bulk_shard_indices` / :func:`ordered_indices_by_column` — bulk
  helpers behind the partitioners in
  :mod:`repro.relational.partition`.

Exactness rules (what keeps the vector backend bit-identical to the
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

import os
import threading
import zlib
from typing import Any, Iterable, Sequence

from .bag import BagRelation
from .identity_memo import IdentityMemo
from .relation import Relation
from .schema import Schema

__all__ = [
    "Column",
    "ColumnarTable",
    "column_from_values",
    "column_values",
    "numpy_active",
    "set_numpy_enabled",
    "columnar_of_relation",
    "columnar_of_bag",
    "clear_columnar_cache",
    "columnar_cache_info",
    "bulk_shard_indices",
    "ordered_indices_by_column",
    "INT64_SAFE_BOUND",
    "FLOAT_EXACT_INT_BOUND",
]

try:  # NumPy is optional: the backend degrades to list-backed columns.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via set_numpy_enabled
    _np = None

#: ints with ``|v| >= 2**63`` cannot live in an int64 array at all.
INT64_SAFE_BOUND = 2 ** 63
#: ints with ``|v| >= 2**53`` lose exactness under a float64 cast.
FLOAT_EXACT_INT_BOUND = 2 ** 53

_STATE_LOCK = threading.Lock()
#: Runtime switch for the pure-Python column mode (tests and the
#: ``MAHIF_VECTOR_NUMPY=0`` escape hatch); guarded by ``_STATE_LOCK``.
_numpy_enabled = os.environ.get(
    "MAHIF_VECTOR_NUMPY", "1"
).strip().lower() not in ("0", "off", "false")


def numpy_active() -> bool:
    """Whether columns are being built as NumPy arrays right now."""
    if _np is None:
        return False
    with _STATE_LOCK:
        return _numpy_enabled


def set_numpy_enabled(enabled: bool) -> bool:
    """Toggle NumPy-backed columns (tests exercise the pure-Python
    fallback this way); returns the previous setting.  Flipping the
    switch drops the columnarization caches so array- and list-backed
    tables never mix for the same stored relation."""
    global _numpy_enabled
    with _STATE_LOCK:
        previous = _numpy_enabled
        _numpy_enabled = bool(enabled)
    if previous != bool(enabled):
        clear_columnar_cache()
    return previous


class Column:
    """One attribute's values: a typed array plus a validity mask.

    ``tag`` is one of ``"int"``, ``"float"``, ``"bool"``, ``"str"``,
    ``"object"``.  Array-backed columns (``is_array``) hold fills at
    invalid slots (0 / 0.0 / False / ``""``) with ``valid`` the bitmap
    (``None`` means all-valid); list-backed columns hold the original
    Python objects verbatim, ``None`` inline, and ``valid`` is always
    ``None``.  ``int_bound`` is a static bound on ``max(|v|)`` for int
    columns (0 for empty), used by the kernels' exactness guards.
    """

    __slots__ = ("tag", "data", "valid", "int_bound")

    def __init__(self, tag: str, data: Any, valid: Any = None,
                 int_bound: int = 0) -> None:
        self.tag = tag
        self.data = data
        self.valid = valid
        self.int_bound = int_bound

    @property
    def is_array(self) -> bool:
        return _np is not None and isinstance(self.data, _np.ndarray)

    def __len__(self) -> int:
        return len(self.data)

    def take(self, indices: Any) -> "Column":
        """Gather rows (``indices`` is an int array or list)."""
        if self.is_array:
            valid = None if self.valid is None else self.valid[indices]
            return Column(self.tag, self.data[indices], valid, self.int_bound)
        data = self.data
        return Column(
            self.tag, [data[i] for i in indices], None, self.int_bound
        )


def column_from_values(values: Sequence[Any]) -> Column:
    """Sniff a value sequence into the tightest exact column.

    Promotion never crosses type groups: a column is array-typed only
    when every non-NULL value is the same scalar type (bools are *not*
    folded into ints), NaN-free for floats, and within ``int64`` range
    for ints; everything else is preserved verbatim in a list-backed
    ``"object"`` column.
    """
    values = list(values)
    if not numpy_active() or not values:
        return Column(_sniff_tag(values), values)
    tag = _sniff_tag(values)
    if tag == "object":
        return Column("object", values)
    has_null = any(v is None for v in values)
    if tag == "int":
        bound = max(abs(v) for v in values if v is not None)
        if bound >= INT64_SAFE_BOUND:
            return Column("object", values)
        if has_null:
            valid = _np.array([v is not None for v in values], dtype=bool)
            data = _np.array(
                [0 if v is None else v for v in values], dtype=_np.int64
            )
            return Column("int", data, valid, bound)
        return Column("int", _np.array(values, dtype=_np.int64), None, bound)
    if tag == "float":
        if has_null:
            valid = _np.array([v is not None for v in values], dtype=bool)
            data = _np.array(
                [0.0 if v is None else v for v in values], dtype=_np.float64
            )
            return Column("float", data, valid)
        return Column("float", _np.array(values, dtype=_np.float64))
    if tag == "bool":
        if has_null:
            valid = _np.array([v is not None for v in values], dtype=bool)
            data = _np.array(
                [bool(v) for v in values], dtype=_np.bool_
            )
            return Column("bool", data, valid)
        return Column("bool", _np.array(values, dtype=_np.bool_))
    # str: object array so values stay Python strings end to end.
    if has_null:
        valid = _np.array([v is not None for v in values], dtype=bool)
        data = _np.array(
            ["" if v is None else v for v in values], dtype=object
        )
        return Column("str", data, valid)
    return Column("str", _np.array(values, dtype=object))


def _sniff_tag(values: Sequence[Any]) -> str:
    """The uniform scalar tag of a value sequence, or ``"object"``."""
    tag = None
    for v in values:
        if v is None:
            continue
        if isinstance(v, bool):
            t = "bool"
        elif isinstance(v, int):
            t = "int"
        elif isinstance(v, float):
            if v != v:  # NaN: identity-bearing, never array-typed
                return "object"
            t = "float"
        elif isinstance(v, str):
            t = "str"
        else:
            return "object"
        if tag is None:
            tag = t
        elif tag != t:
            return "object"
    return tag if tag is not None else "object"


def column_values(col: Column) -> list:
    """The column as a list of Python values (``None`` at invalid slots)."""
    if not col.is_array:
        return list(col.data)
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
        return Column(a.tag, data, valid, max(a.int_bound, b.int_bound))
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
        rows: Sequence[tuple],
        mult: Iterable[int] | None = None,
    ) -> "ColumnarTable":
        columns = [
            column_from_values([row[i] for row in rows])
            for i in range(schema.arity)
        ]
        return cls(
            schema, columns, len(rows),
            None if mult is None else list(mult),
        )

    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnarTable":
        return cls.from_rows(relation.schema, list(relation.tuples))

    @classmethod
    def from_bag(cls, bag: BagRelation) -> "ColumnarTable":
        rows = list(bag.multiplicities.keys())
        return cls.from_rows(
            bag.schema, rows, list(bag.multiplicities.values())
        )

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
                indices.tolist() if _np is not None
                and isinstance(indices, _np.ndarray) else list(indices)
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


def _cached_table(memo: IdentityMemo, obj: Any, build) -> ColumnarTable:
    table = memo.find(obj)
    if table is None:
        table = memo.remember(obj, None, build(obj))
    return table


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


# -- partition helpers -------------------------------------------------------

def bulk_shard_indices(rows: Sequence[tuple], shards: int) -> list[int]:
    """Shard index of every row in one pass.

    Must agree with :func:`repro.relational.partition.stable_shard_of`
    bit-for-bit — shard assignment is part of the cross-process
    contract — so the hash stays CRC32-of-repr; the win over the per-row
    helper is one tight loop with bound locals instead of a function
    call per row."""
    crc32 = zlib.crc32
    return [
        crc32(repr(row).encode("utf-8", "surrogatepass")) % shards
        for row in rows
    ]


def ordered_indices_by_column(
    rows: Sequence[tuple], key_index: int
) -> list[int] | None:
    """Stable ascending order of ``rows`` under the mixed-type sort key
    on one column, via an ``argsort`` kernel — or ``None`` when the
    column is not uniformly clean numeric.

    Only uniform non-NULL int or float columns qualify: there the
    mixed-type key reduces to the numeric value itself (one type rank,
    no NaN — NaN-bearing columns are list-backed by construction), so a
    stable argsort reproduces ``sorted(key=_sort_key)`` exactly.  Bools
    and NULLs rank differently from ints in the mixed-type order, so
    those columns fall back to the Python sort."""
    if not rows or not numpy_active():
        return None
    col = column_from_values([row[key_index] for row in rows])
    if not col.is_array or col.tag not in ("int", "float"):
        return None
    if col.valid is not None:
        return None
    return _np.argsort(col.data, kind="stable").tolist()
