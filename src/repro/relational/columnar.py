"""Columnar storage for relations: typed columns with a cheap tuple view.

The columnar evaluator (:mod:`repro.relational.exec.vector_compile` —
what the default ``"compiled"`` backend and ``"vector"`` run a query
and a set-semantics statement on) evaluates operators as whole-column
kernels instead of streaming Python tuples row-at-a-time.  This module
supplies its data layer:

* :class:`Column` — one attribute's values as a typed array.  Clean
  columns become ``int64`` / ``float64`` / ``bool_`` / object-of-``str``
  arrays plus an optional validity bitmap (``None`` values are replaced
  by a fill and masked out), and remember the values they were built
  from (:class:`StoredCells`, with the cells' order codes once asked
  for) beside the typed one, and the :class:`StoredTable` that spells
  their rows, so a cell that passes through a plan comes back as the
  stored object and is spelled with the stored text — one text per row
  for a run of adjacent pass-through columns; anything mixed-type,
  NaN-bearing, or exotic stays a plain
  Python list (tag ``"object"``) that kernels refuse and per-row
  fallbacks consume verbatim.
* :class:`ColumnarTable` — a schema plus one column per attribute and an
  optional multiplicity vector (bag semantics), with ``tuples()`` /
  ``to_relation()`` / ``to_bag()`` views so the interpreter oracle and
  the store codec keep consuming row tuples unchanged, and the columns
  known to hold pairwise distinct values (:meth:`ColumnarTable.is_distinct`).
* :func:`sorted_delta` — the delta of two set-semantics results in one
  ordering that refines ties key by key, in ``sort_rows`` order,
  without materializing a row.
* :func:`columnar_of_relation` / :func:`columnar_of_bag` — the table of
  a table-backed :class:`~repro.relational.relation.Relation` (what
  statement replay returns), else per-object columnarization caches on
  object identity
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

import json
from json.encoder import encode_basestring_ascii
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
    "StoredCells",
    "StoredTable",
    "column_from_values",
    "column_values",
    "take_columns",
    "run_texts",
    "columnar_of_relation",
    "columnar_of_bag",
    "clear_columnar_cache",
    "columnar_cache_info",
    "sorted_delta",
    "MEMO_OUTCOMES",
    "INT64_SAFE_BOUND",
    "FLOAT_EXACT_INT_BOUND",
]

#: ints with ``|v| >= 2**63`` cannot live in an int64 array at all.
INT64_SAFE_BOUND = 2 ** 63
#: ints with ``|v| >= 2**53`` lose exactness under a float64 cast.
FLOAT_EXACT_INT_BOUND = 2 ** 53
_INF = float("inf")


class StoredTable:
    """The stored columns of one table, as the wire spells them: per run
    ``(lo, hi)`` of adjacent columns that something has asked for, one
    JSON text per stored row — the run's cells as ``json.dumps`` spells
    them, joined by ``", "`` — remembered for as long as the table lives.
    A column's own cell text is the run of one.

    :meth:`ColumnarTable.from_rows` makes one for its stored columns,
    and :meth:`ColumnarTable.concat` one for the columns it joins from
    two tables' cells (``parts``), whose run text is each part's text of
    the run, stacked; a column built alone is a table of one.  It holds
    what spelling needs (each column's tag, data, validity and parts),
    not the :class:`StoredCells` that point to it, so the two make no
    reference cycle and go with their last column.
    """

    __slots__ = ("_columns", "_runs")

    def __init__(self, columns: Sequence[tuple | None]) -> None:
        #: Per column: ``(tag, data, valid, parts)``, or ``None`` for a
        #: column that is not stored (list-backed).
        self._columns = columns
        self._runs: dict[tuple[int, int], Any] = {}

    # The lazy fill may race: two threads compute equal arrays and one
    # assignment wins, which no reader can tell apart.

    def text(self, lo: int, hi: int) -> Any:
        """Every stored row's text of columns ``lo`` to ``hi - 1``, as
        an object array of ``str``."""
        text = self._runs.get((lo, hi))
        if text is None:
            columns = self._columns[lo:hi]
            if columns[0][3]:  # a concatenation: its parts' runs, stacked
                text = _np.concatenate([
                    _joined(run_texts([column[3][i] for column in columns]))
                    for i in range(len(columns[0][3]))
                ])
            else:
                text = _joined([
                    _typed_json(tag, data, valid)
                    for tag, data, valid, _ in columns
                ])
            self._runs[lo, hi] = text
        return text

    @staticmethod
    def bind(cells: Sequence["StoredCells | None"]) -> None:
        """Make ``cells`` (``None``: a column left out) the columns of
        one new table, each at its index."""
        table = StoredTable([
            None if cell is None
            else (cell.tag, cell.data, cell.valid, cell._parts)
            for cell in cells
        ])
        for index, cell in enumerate(cells):
            if cell is not None:
                cell.table, cell.index = table, index


class StoredCells:
    """The cells of a column built from Python values, and what is
    derived from them once and then remembered for as long as the column
    lives: their order-preserving codes here, their JSON text in the
    :class:`StoredTable` they are column ``index`` of.

    A stored column (one :func:`column_from_values` built) owns one; a
    column gathered from it by ``take`` shares it and carries the row
    indices it reads (``Column.rows``), so a cell that passes through a
    plan is the stored object and is spelled with the stored text.  A
    concatenation of two columns with different cells owns cells made of
    theirs (``parts``): its objects and text are theirs, joined on first
    use.
    """

    __slots__ = ("tag", "data", "valid", "table", "index", "_objects",
                 "_codes", "_parts")

    def __init__(self, tag: str, data: Any, valid: Any, objects: Any = None,
                 parts: tuple["Column", ...] = ()) -> None:
        self.tag = tag
        self.data = data
        self.valid = valid
        self._objects = objects
        self._parts = parts
        self._codes = None
        #: A table of their own until ``StoredTable.bind`` makes them a
        #: column of a wider one.
        self.table = StoredTable([(tag, data, valid, parts)])
        self.index = 0

    # The lazy fills below may race: two threads compute equal arrays and
    # one assignment wins, which no reader can tell apart.

    def objects(self) -> Any:
        """The values, as an object array (``None`` inline)."""
        if self._objects is None:
            self._objects = _np.concatenate([p.objects() for p in self._parts])
        return self._objects

    def codes(self) -> Any:
        """int64 codes that order and equate the cells as Python does,
        from one ``np.unique`` (a string column's sort key; NULL slots
        hold the fill's code)."""
        if self._codes is None:
            _, inverse = _np.unique(self.data, return_inverse=True)
            self._codes = inverse.reshape(-1).astype(_np.int64)
        return self._codes


class Column:
    """One attribute's values: a typed array plus a validity mask.

    ``tag`` is one of ``"int"``, ``"float"``, ``"bool"``, ``"str"``,
    ``"object"``.  Array-backed columns (``is_array``) hold fills at
    invalid slots (0 / 0.0 / False / ``""``) with ``valid`` the bitmap
    (``None`` means all-valid); list-backed columns hold the original
    Python objects verbatim, ``None`` inline, and ``valid`` is always
    ``None``.  ``int_bound`` is a static bound on ``max(|v|)`` for int
    columns (0 for empty), used by the kernels' exactness guards.
    ``stored`` is the :class:`StoredCells` an array-backed column's
    cells come from, or ``None`` for a column a kernel computed, and
    ``rows`` the indices of its cells there (``None``: all of them, in
    order): both travel through ``take`` / ``concat_columns``, so
    :func:`column_values` hands back the stored objects and
    :meth:`json_text` the stored text.
    """

    __slots__ = ("tag", "data", "valid", "int_bound", "stored", "rows")

    def __init__(self, tag: str, data: Any, valid: Any = None,
                 int_bound: int = 0, stored: StoredCells | None = None,
                 rows: Any = None) -> None:
        self.tag = tag
        self.data = data
        self.valid = valid
        self.int_bound = int_bound
        self.stored = stored
        self.rows = rows

    @property
    def is_array(self) -> bool:
        return isinstance(self.data, _np.ndarray)

    def __len__(self) -> int:
        return len(self.data)

    def _stored_view(self, cells: Any) -> Any:
        """A per-stored-cell array read at this column's rows."""
        return cells if self.rows is None else cells[self.rows]

    def _stored_rows(self) -> Any:
        if self.rows is None:
            return _np.arange(len(self.data), dtype=_np.intp)
        return self.rows

    def objects(self) -> Any:
        """The stored values as an object array, or ``None`` for a
        computed column."""
        if self.stored is None:
            return None
        return self._stored_view(self.stored.objects())

    def json_text(self, width: int = 1) -> Any:
        """Every row's JSON text, as ``json.dumps`` would spell it, as an
        object array of ``str``: of this column's cell — or, with
        ``width > 1``, of the run this column starts, its cells and those
        of the ``width - 1`` columns after it that :meth:`followed_by`
        chains, joined by ``", "``.  The stored text where the cells are
        stored ones, formatted now for a computed column."""
        if self.stored is not None:
            lo = self.stored.index
            return self._stored_view(self.stored.table.text(lo, lo + width))
        if self.is_array:
            return _typed_json(self.tag, self.data, self.valid)
        return _object_array(list(map(_cell_json, self.data)))

    def followed_by(self, other: "Column") -> bool:
        """Whether ``other`` reads the next column of this one's stored
        table at the very same rows (one ``rows`` array, as ``take``
        shares it), so their cells spell as one run."""
        mine, theirs = self.stored, other.stored
        return (
            mine is not None
            and theirs is not None
            and theirs.table is mine.table
            and theirs.index == mine.index + 1
            and other.rows is self.rows
        )

    def take(self, indices: Any, shared: dict) -> "Column":
        """Gather rows (``indices`` is an int array or list).  ``shared``,
        one dict per gather of a whole table (:func:`take_columns`),
        hands the columns that read one ``rows`` array one gathered
        array."""
        if self.is_array:
            rows = None
            if self.stored is not None:
                rows = shared.get(id(self.rows))
                if rows is None:
                    rows = shared[id(self.rows)] = (
                        _np.asarray(indices, dtype=_np.intp)
                        if self.rows is None else self.rows[indices]
                    )
            return Column(
                self.tag,
                self.data[indices],
                None if self.valid is None else self.valid[indices],
                self.int_bound,
                self.stored,
                rows,
            )
        data = self.data
        return Column(
            self.tag, [data[i] for i in indices], None, self.int_bound
        )


def take_columns(columns: Sequence[Column], indices: Any) -> list[Column]:
    """Gather ``indices`` of every column of one table; columns that read
    one ``rows`` array keep reading one, which is how the wire encoder
    tells a run (:meth:`Column.followed_by`)."""
    shared: dict[int, Any] = {}
    return [column.take(indices, shared) for column in columns]


def run_texts(columns: Sequence[Column]) -> list[Any]:
    """Each row's text per maximal run of ``columns``: adjacent columns
    that read consecutive columns of one stored table at the same rows
    (:meth:`Column.followed_by`) are one piece, the stored table's
    remembered text of the run; any other column is a run of its own."""
    texts, start = [], 0
    for end in range(1, len(columns) + 1):
        if end == len(columns) or not columns[end - 1].followed_by(
            columns[end]
        ):
            texts.append(columns[start].json_text(end - start))
            start = end
    return texts


def _joined(texts: list) -> Any:
    """Per row, the row's texts of ``texts`` joined by ``", "``."""
    if len(texts) == 1:
        return texts[0]
    rows = zip(*[text.tolist() for text in texts])
    return _object_array(list(map(", ".join, rows)))


# -- JSON text of cells: the json encoder's own rules ------------------------

_BOOL_JSON = ("false", "true")


def _float_json(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _cell_json(value: Any) -> str:
    """One cell of a list-backed column, in the order of checks the
    ``json`` encoder makes."""
    if value is None:
        return "null"
    if value is True or value is False:
        return _BOOL_JSON[value]
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_json(value)
    return json.dumps(value)


def _object_array(values: list) -> Any:
    array = _np.empty(len(values), dtype=object)
    array[:] = values
    return array


def _typed_json(tag: str, data: Any, valid: Any) -> Any:
    """JSON text of an array-backed column, one typed ``map``."""
    values = data.tolist()
    if tag == "int":
        cells = map(int.__repr__, values)
    elif tag == "float":
        finite = _np.isfinite(data).all()
        cells = map(float.__repr__ if finite else _float_json, values)
    elif tag == "bool":
        cells = map(_BOOL_JSON.__getitem__, values)
    else:
        cells = map(encode_basestring_ascii, values)
    text = _object_array(list(cells))
    if valid is not None:
        text[~valid] = "null"
    return text


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
        return Column(
            "str", filled, valid, 0, StoredCells("str", filled, valid, objects)
        )
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
    return Column(
        tag, data, valid, bound, StoredCells(tag, data, valid, objects)
    )


def column_values(col: Column) -> list:
    """The column as a list of Python values (``None`` at invalid slots):
    the values it was built from when it remembers them."""
    if not col.is_array:
        return list(col.data)
    if col.stored is not None:
        return col.objects().tolist()
    data = col.data.tolist()
    if col.valid is None:
        return data
    return [
        v if ok else None for v, ok in zip(data, col.valid.tolist())
    ]


def concat_columns(a: Column, b: Column, shared: dict) -> Column:
    """Stack two columns (union); mismatched tags re-sniff to preserve
    value types exactly rather than promoting through a NumPy cast.  An
    empty side contributes nothing, its tag included.  ``shared``, one
    dict per concatenation of two whole tables, hands the columns that
    read one pair of ``rows`` arrays one joined array."""
    if not len(b):
        return a
    if not len(a):
        return b
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
        stored = rows = None
        if a.stored is not None and a.stored is b.stored:
            stored = a.stored
            key = (id(a.rows), id(b.rows))
            rows = shared.get(key)
            if rows is None:
                rows = shared[key] = _np.concatenate(
                    [a._stored_rows(), b._stored_rows()]
                )
        elif a.stored is not None and b.stored is not None:
            stored = StoredCells(a.tag, data, valid, parts=(a, b))
        return Column(
            a.tag, data, valid, max(a.int_bound, b.int_bound), stored, rows
        )
    return column_from_values(column_values(a) + column_values(b))


class ColumnarTable:
    """A schema, one :class:`Column` per attribute, and (for bags) a
    parallel multiplicity list.

    Row order is meaningful: operators preserve it so the vector
    backend's per-row fallbacks hit rows in exactly the order the
    compiled pipelines would (identical first-error behaviour).

    ``distinct`` holds what is known of each column's values, per column
    index: ``True`` where they are pairwise distinct (no two rows equal
    there, as Python's ``==`` tells values apart), ``False`` where that
    is not known to hold; a column it lacks has not been looked at.
    :meth:`is_distinct` establishes a fact once per table; operators
    start a new table knowing nothing, and statement replay carries the
    facts to a ``DELETE``'s rows, through an ``UPDATE`` (less the
    columns it SETs) and an ``INSERT`` (less a column the new row
    repeats)."""

    __slots__ = ("schema", "columns", "nrows", "mult", "distinct")

    def __init__(self, schema: Schema, columns: list[Column], nrows: int,
                 mult: list[int] | None = None) -> None:
        self.schema = schema
        self.columns = columns
        self.nrows = nrows
        self.mult = mult
        self.distinct: dict[int, bool] = {}

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Collection[tuple],
        mult: Iterable[int] | None = None,
    ) -> "ColumnarTable":
        if rows:  # one transpose, then one pass per column
            columns = [column_from_values(values) for values in zip(*rows)]
            StoredTable.bind([column.stored for column in columns])
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

    def is_distinct(self, index: int) -> bool:
        """Whether column ``index`` holds pairwise distinct values: one
        ``np.unique`` over a NULL-free, NaN-free int, float or str array
        (``-0.0`` and ``0.0`` count as one value, as ``==`` has them),
        the first time it is asked of this table; ``False`` for any
        other column.  The lazy fill may race: two threads compute one
        fact."""
        fact = self.distinct.get(index)
        if fact is None:
            column = self.columns[index]
            data = column.data
            fact = (
                column.is_array
                and column.tag in ("int", "float", "str")
                and (column.valid is None or bool(column.valid.all()))
                and not (column.tag == "float" and _np.isnan(data).any())
                and len(_np.unique(data)) == len(data)
            )
            self.distinct[index] = fact
        return fact

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
            take_columns(self.columns, indices),
            nrows,
            mult,
        )

    def concat(self, other: "ColumnarTable") -> "ColumnarTable":
        """The rows of ``self`` followed by those of ``other`` (whose
        schema must have the same arity), duplicates kept.  Columns that
        join two tables' cells (``parts``) are one stored table, so
        adjacent ones still spell as one run."""
        mult = None
        if self.mult is not None or other.mult is not None:
            mult = (
                (self.mult if self.mult is not None else [1] * self.nrows)
                + (other.mult if other.mult is not None
                   else [1] * other.nrows)
            )
        shared: dict = {}
        columns = [
            concat_columns(a, b, shared)
            for a, b in zip(self.columns, other.columns)
        ]
        joined = [  # the cells made here of ``a``'s and ``b``'s
            column.stored
            if column.stored is not None and column.stored._parts
            and column.stored._parts[0] is a
            else None
            for column, a in zip(columns, self.columns)
        ]
        if any(joined):
            StoredTable.bind(joined)
        return ColumnarTable(
            self.schema, columns, self.nrows + other.nrows, mult
        )

    def appended(self, row: tuple) -> "ColumnarTable":
        """``self`` followed by ``row``, as :meth:`concat` with a one-row
        table makes it, except that each joined column's cells stand
        alone rather than as parts of ``self``'s: a chain of inserts
        (statement replay) then keeps no earlier table's columns alive."""
        table = self.concat(ColumnarTable.from_rows(self.schema, [row]))
        alone: list[StoredCells | None] = []
        for column in table.columns:
            cells = column.stored
            if cells is not None and cells._parts:
                cells = column.stored = StoredCells(
                    column.tag, column.data, column.valid, cells.objects()
                )
                alone.append(cells)
            else:
                alone.append(None)
        if any(alone):
            StoredTable.bind(alone)
        return table

    def to_relation(self) -> Relation:
        return Relation(self.schema, frozenset(self.tuples()))

    def to_bag(self) -> BagRelation:
        counts: dict[tuple, int] = {}
        mult = self.mult if self.mult is not None else [1] * self.nrows
        for row, count in zip(self.tuples(), mult):
            counts[row] = counts.get(row, 0) + count
        return BagRelation(self.schema, counts)


# -- the delta of two tables, in one ordering ------------------------------

def _sort_keys(a: Column, b: Column) -> list | None:
    """Sort keys for one attribute over ``a`` then ``b`` whose order and
    equality are ``sort_rows``'s and ``==``'s: a validity key (NULL
    first) where a side has NULLs, then the values — numbers and bools
    as they are, strings as their stored order codes (coded now when
    the two sides' cells differ).  ``None``
    when no exact key exists: a list-backed column, the two sides'
    tags differ, or a NaN.  An empty side's column does not count."""
    parts = [column for column in (a, b) if len(column)]
    if not parts:
        return []
    tags = {column.tag for column in parts}
    if len(tags) > 1 or not all(column.is_array for column in parts):
        return None
    tag = tags.pop()
    if tag == "object":
        return None
    if tag == "str" and parts[0].stored is not None and all(
        column.stored is parts[0].stored for column in parts
    ):
        values = _np.concatenate(
            [column._stored_view(column.stored.codes()) for column in parts]
        )
    elif tag == "str":
        _, values = _np.unique(
            _np.concatenate([column.data for column in parts]),
            return_inverse=True,
        )
        values = values.reshape(-1)
    else:  # sorting and == both take -0.0 for 0.0
        values = _np.concatenate([column.data for column in parts])
    if all(column.valid is None for column in parts):
        valid = None
    else:
        valid = _np.concatenate([
            column.valid if column.valid is not None
            else _np.ones(len(column), dtype=bool)
            for column in parts
        ])
        values = _np.where(valid, values, 0)
    if tag == "float" and _np.isnan(values).any():
        return None
    return [values] if valid is None else [valid, values]


def _lex_order(keys: list) -> tuple[Any, Any]:
    """``np.lexsort(keys[::-1])`` — the rows ordered on ``keys[0]``, ties
    broken by ``keys[1]`` and so on, equal rows in index order — and
    ``tied``: whether each row of that order equals the next one on
    every key.

    Only the first key is sorted.  Each later key is read at the
    adjacent positions still tied, and where it splits a group of
    exactly two rows, one compare orders them (a swap where the first
    is the greater).  A key that splits a group of three or more rows
    ends the refining: one ``np.lexsort`` over every key orders the
    rows, and later keys only narrow ``tied`` (whose positions both
    orders share, since both sort on the keys read so far).  So no
    input costs more than that one sort plus a one-key argsort."""
    order = _np.argsort(keys[0], kind="stable")
    ranked = keys[0][order]
    tied = ranked[1:] == ranked[:-1]
    refining = True
    for key in keys[1:]:
        at = _np.flatnonzero(tied)
        if not len(at):
            break
        low, high = order[at], order[at + 1]
        left, right = key[low], key[high]
        split = left != right
        if refining and split.any():
            # adjacent tied positions: one group of three or more rows
            chained = at[1:] == at[:-1] + 1
            grouped = _np.zeros(len(at), dtype=bool)
            grouped[1:] = chained
            grouped[:-1] |= chained
            if (split & grouped).any():
                refining = False
                order = _np.lexsort(keys[::-1])
                split = key[order[at]] != key[order[at + 1]]
            else:
                swap = left > right
                order[at[swap]] = high[swap]
                order[at[swap] + 1] = low[swap]
        tied[at[split]] = False
    return order, tied


def sorted_delta(
    current: ColumnarTable, modified: ColumnarTable
) -> tuple[ColumnarTable, ColumnarTable] | None:
    """``Δ`` of two set-semantics results in one ordering: the rows of
    ``current`` that ``modified`` lacks and the rows of ``modified``
    that ``current`` lacks, each in ``sort_rows`` order — or ``None``
    when some attribute has no exact sort key (see :func:`_sort_keys`)
    and the caller must take the frozenset route.

    :func:`_lex_order` orders the two tables' rows together — the order
    of one ``np.lexsort`` on every key, by sorting the first key and
    refining only the rows it ties (on an ``exec_bound`` pair, 6 488 +
    6 488 rows and ten keys, every tie is a row and its twin: 2.3 ms
    where the sort on every key and the run loop took 7.4) — and tells
    where equal rows touch; a run of equal adjacent rows is one
    distinct row, common to both sides when the run holds rows of both,
    a delta row otherwise.  The order is stable and ``current`` comes
    first, so a run's first row is its first occurrence in table order —
    the one a ``frozenset`` of the rows keeps, which matters where equal
    cells differ in text (``0.0`` / ``-0.0``)."""
    if (
        current.mult is not None
        or modified.mult is not None
        or len(current.columns) != len(modified.columns)
        or not current.columns
    ):
        return None
    if current is modified:  # one table (a relation both sides scan)
        none = _np.zeros(0, dtype=_np.intp)
        return current.take(none), modified.take(none)
    keys: list = []
    for a, b in zip(current.columns, modified.columns):
        column_keys = _sort_keys(a, b)
        if column_keys is None:
            return None
        keys += column_keys
    total = current.nrows + modified.nrows
    if not total:
        return current, modified
    order, tied = _lex_order(keys)
    first = _np.flatnonzero(_np.concatenate(([True], ~tied)))
    from_current = _np.add.reduceat(
        (order < current.nrows).astype(_np.int64), first
    )
    length = _np.diff(first, append=total)
    removed = order[first[from_current == length]]
    added = order[first[from_current == 0]] - current.nrows
    return current.take(removed), modified.take(added)


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
    """The columnar view of a set relation: the table a table-backed
    relation holds (a memo hit: nothing to build), else the one
    remembered on a row-backed relation's identity."""
    table = relation._table
    if table is not None:
        MEMO_OUTCOMES.inc(outcome="hit")
        return table
    return _cached_table(_RELATIONS, relation, ColumnarTable.from_relation)


def columnar_of_bag(bag: BagRelation) -> ColumnarTable:
    """The cached columnar view of a stored bag relation."""
    return _cached_table(_BAGS, bag, ColumnarTable.from_bag)


def clear_columnar_cache() -> None:
    _RELATIONS.clear()
    _BAGS.clear()


def columnar_cache_info() -> dict[str, int]:
    return {"relations": len(_RELATIONS), "bags": len(_BAGS)}
