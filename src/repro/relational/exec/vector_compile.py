"""The columnar evaluator — the one query compiler of the in-process
``"compiled"`` backend (``"vector"`` is the same backend under its older
name): every operator tree the backend evaluates, under set and bag
semantics, a reenactment query or the query of an ``INSERT … SELECT``
inside a replayed statement, runs here as whole-column kernels over
:class:`~repro.relational.columnar.ColumnarTable`.

Operators evaluate bottom-up into columnar tables: selections compute a
bitmap filter, projections evaluate output expressions as column
kernels, equi-joins match key *codes* with a bloom-bitmap prefilter and
a stable sort/searchsorted probe, and bag semantics carries an explicit
multiplicity column with eager duplicate aggregation at the pipeline
breakers (projection, union, difference, join).

Exactness contract: the evaluator is differentially fuzzed to be
bit-identical to the interpreter (and to the sqlite backend).  Two
mechanisms make that hold:

* **Kernels only run where eager, array-typed evaluation provably equals
  the interpreter's lazy per-row evaluation.**  A sub-expression
  vectorizes only when it is raise-free (so eager evaluation of both
  Logic/If branches is indistinguishable from short-circuiting) and when
  NumPy's type promotion is exact for the operand columns (int/float
  mixes demand ``|int| < 2**53``; pure-int arithmetic is bounded away
  from ``int64`` overflow; ``bool`` arithmetic casts to ``int64`` first
  because NumPy's ``bool + bool`` is logical-or, not ``True + True ==
  2``).  Everything else — string arithmetic, ordered cross-type
  comparisons (which must raise :class:`EvaluationError` row-at-a-time),
  symbolic :class:`Var` reads, ``"object"`` columns — falls back to the
  compiled per-row closures of :mod:`.expr_compile`.
* **Row order is preserved through every operator** (probe-side outer,
  build-insertion inner for joins), so per-row fallbacks hit rows in one
  fixed sequence and raise the same first error on every run.

Join keys come from :func:`split_equijoin_condition`; rows whose key
holds NULL or NaN never match (:func:`_null_free`); the coded fast path
additionally normalizes ``-0.0`` to ``+0.0`` and routes ``|int| >=
2**53`` keys to a Python dict join (NumPy would compare them through a
lossy ``float64`` cast).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

import numpy as np

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
)
from ..columnar import (
    Column,
    ColumnarTable,
    FLOAT_EXACT_INT_BOUND,
    INT64_SAFE_BOUND,
    column_from_values,
    column_values,
    columnar_of_bag,
    columnar_of_relation,
    take_columns,
)
from ..expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    Expr,
    If,
    IsNull,
    Logic,
    Not,
    TRUE,
    and_,
    attributes_of,
    conjuncts_of,
    variables_of,
)
from ..relation import Relation
from ..schema import Schema, SchemaError, check_union_compatible
from .expr_compile import compile_predicate, compile_row

__all__ = [
    "execute_pair_vector",
    "execute_plan_vector",
    "execute_plan_vector_bag",
    "split_equijoin_condition",
    "vectorize_condition",
]

#: Static bound guaranteeing two int64 operands cannot overflow int64.
_INT_ARITH_BOUND = 2 ** 62
#: Cap on materialized cross-product pairs per nested-loop chunk.
_NESTED_CHUNK_PAIRS = 2_000_000

_NUMERIC_TAGS = ("int", "float", "bool")

_NP_CMP: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_NP_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


# -- expression kernels -----------------------------------------------------

def _merge_valid(a: Column, b: Column):
    """Combined validity bitmap of two columns (None = all valid)."""
    if a.valid is None:
        return b.valid
    if b.valid is None:
        return a.valid
    return a.valid & b.valid


def _truthy(col: Column, n: int):
    """``bool(value)`` of every slot (NULL is falsy, like ``bool(None)``)."""
    if col.tag == "bool":
        mask = col.data
    elif col.tag == "int":
        mask = col.data != 0
    elif col.tag == "float":
        # NaN != 0.0 is True, matching bool(nan) == True.
        mask = col.data != 0.0
    else:  # str
        mask = np.asarray(col.data != "", dtype=bool)
    if col.valid is not None:
        mask = mask & col.valid
    return np.asarray(mask, dtype=bool)


def _as_float(col: Column):
    if col.tag == "float":
        return col.data
    return col.data.astype(np.float64)


def _as_int(col: Column):
    if col.tag == "bool":
        return col.data.astype(np.int64)
    return col.data


def _float_exact(col: Column) -> bool:
    """Whether casting this operand to float64 preserves comparisons."""
    return col.tag != "int" or col.int_bound < FLOAT_EXACT_INT_BOUND


def _vec_expr(expr: Expr, table: ColumnarTable) -> Column | None:
    """Evaluate ``expr`` as a whole-column kernel, or ``None`` when only
    the per-row fallback can reproduce interpreter semantics."""
    n = table.nrows
    if isinstance(expr, Const):
        value = expr.value
        if value is None:
            # NULL constant: an all-invalid column of arbitrary tag.
            return Column(
                "int", np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
            )
        if isinstance(value, bool):
            return Column("bool", np.full(n, value, dtype=np.bool_))
        if isinstance(value, int):
            if abs(value) >= INT64_SAFE_BOUND:
                return None
            return Column(
                "int", np.full(n, value, dtype=np.int64), None, abs(value)
            )
        if isinstance(value, float):
            if value != value:  # NaN constants keep per-row identity
                return None
            return Column("float", np.full(n, value, dtype=np.float64))
        if isinstance(value, str):
            return Column("str", np.full(n, value, dtype=object))
        return None
    if isinstance(expr, Attr):
        try:
            index = table.schema.index_of(expr.name)
        except SchemaError:
            return None  # unbound: fallback raises EvaluationError per row
        col = table.columns[index]
        if not col.is_array or col.tag == "object":
            return None
        return col
    if isinstance(expr, Arith):
        return _vec_arith(expr, table, n)
    if isinstance(expr, Cmp):
        return _vec_cmp(expr, table, n)
    if isinstance(expr, Logic):
        left = _vec_expr(expr.left, table)
        right = _vec_expr(expr.right, table)
        if left is None or right is None:
            return None
        lm = _truthy(left, n)
        rm = _truthy(right, n)
        return Column("bool", lm & rm if expr.op == "and" else lm | rm)
    if isinstance(expr, Not):
        child = _vec_expr(expr.operand, table)
        if child is None:
            return None
        return Column("bool", ~_truthy(child, n))
    if isinstance(expr, IsNull):
        child = _vec_expr(expr.operand, table)
        if child is None:
            return None
        if child.valid is None:
            return Column("bool", np.zeros(n, dtype=np.bool_))
        return Column("bool", ~child.valid)
    if isinstance(expr, If):
        cond = _vec_expr(expr.cond, table)
        then = _vec_expr(expr.then, table)
        orelse = _vec_expr(expr.orelse, table)
        if cond is None or then is None or orelse is None:
            return None
        if then.tag != orelse.tag:
            # Mixed-type branches would promote through np.where; the
            # fallback preserves per-row result types exactly.
            return None
        mask = _truthy(cond, n)
        data = np.where(mask, then.data, orelse.data)
        if then.valid is None and orelse.valid is None:
            valid = None
        else:
            tv = then.valid if then.valid is not None else np.ones(n, bool)
            ov = orelse.valid if orelse.valid is not None else np.ones(n, bool)
            valid = np.where(mask, tv, ov)
        return Column(
            then.tag, data, valid, max(then.int_bound, orelse.int_bound)
        )
    return None  # Var and anything unknown: per-row semantics required


def _vec_arith(expr: Arith, table: ColumnarTable, n: int) -> Column | None:
    left = _vec_expr(expr.left, table)
    right = _vec_expr(expr.right, table)
    if left is None or right is None:
        return None
    if left.tag not in _NUMERIC_TAGS or right.tag not in _NUMERIC_TAGS:
        return None  # str arithmetic (concat/repeat/TypeError) per row
    valid = _merge_valid(left, right)
    if expr.op == "/":
        if not (_float_exact(left) and _float_exact(right)):
            return None
        num = _as_float(left)
        den = _as_float(right)
        nonzero = den != 0.0  # -0.0 divisors are NULL too, like Python
        valid = nonzero if valid is None else (valid & nonzero)
        with np.errstate(all="ignore"):
            data = num / np.where(nonzero, den, 1.0)
        return Column("float", data, valid)
    if left.tag != "float" and right.tag != "float":
        lb = left.int_bound if left.tag == "int" else 1
        rb = right.int_bound if right.tag == "int" else 1
        bound = lb + rb if expr.op in ("+", "-") else lb * rb
        if bound >= _INT_ARITH_BOUND:
            return None  # Python ints are unbounded; int64 is not
        data = _NP_ARITH[expr.op](_as_int(left), _as_int(right))
        return Column("int", data, valid, bound)
    if not (_float_exact(left) and _float_exact(right)):
        return None
    with np.errstate(all="ignore"):
        data = _NP_ARITH[expr.op](_as_float(left), _as_float(right))
    return Column("float", data, valid)


def _vec_cmp(expr: Cmp, table: ColumnarTable, n: int) -> Column | None:
    left = _vec_expr(expr.left, table)
    right = _vec_expr(expr.right, table)
    if left is None or right is None:
        return None
    if left.tag in _NUMERIC_TAGS and right.tag in _NUMERIC_TAGS:
        if ("float" in (left.tag, right.tag)
                and not (_float_exact(left) and _float_exact(right))):
            return None  # int/float mix beyond 2**53: Python is exact
        result = _NP_CMP[expr.op](left.data, right.data)
    elif left.tag == "str" and right.tag == "str":
        result = np.asarray(_NP_CMP[expr.op](left.data, right.data), bool)
    else:
        # Cross-group: equality is uniformly False / inequality True;
        # ordered comparisons raise EvaluationError row-at-a-time.
        if expr.op == "=":
            result = np.zeros(n, dtype=bool)
        elif expr.op == "!=":
            result = np.ones(n, dtype=bool)
        else:
            return None
    valid = _merge_valid(left, right)
    if valid is not None:
        result = result & valid  # NULL comparisons are False (2VL)
    return Column("bool", np.asarray(result, dtype=bool))


def vectorize_condition(condition: Expr, table: ColumnarTable):
    """A boolean keep-mask for ``condition``, or ``None`` when the
    per-row compiled predicate must run instead."""
    col = _vec_expr(condition, table)
    if col is None:
        return None
    return _truthy(col, table.nrows)


# -- shared row-index helpers ------------------------------------------------

def _take_pairs(
    left: ColumnarTable,
    right: ColumnarTable,
    schema: Schema,
    li: Any,
    ri: Any,
) -> ColumnarTable:
    """Gather the concatenated join rows for index pairs (li[k], ri[k])."""
    columns = take_columns(left.columns, li)
    columns += take_columns(right.columns, ri)
    mult = None
    if left.mult is not None or right.mult is not None:
        lm = left.mult if left.mult is not None else [1] * left.nrows
        rm = right.mult if right.mult is not None else [1] * right.nrows
        pairs = zip(np.asarray(li).tolist(), np.asarray(ri).tolist())
        mult = [lm[i] * rm[j] for i, j in pairs]
    return ColumnarTable(schema, columns, len(li), mult)


def _filter_table(table: ColumnarTable, condition: Expr) -> ColumnarTable:
    """σ: bitmap kernel when possible, compiled per-row predicate else."""
    mask = vectorize_condition(condition, table)
    if mask is not None:
        return table.take(np.nonzero(mask)[0])
    predicate = compile_predicate(condition, table.schema)
    keep = [
        i for i, row in enumerate(table.tuples()) if predicate(row)
    ]
    return table.take(keep)


def _project_table(
    table: ColumnarTable, outputs: Sequence[tuple[Expr, str]]
) -> ColumnarTable:
    """π: all output expressions as kernels, or one compiled row closure
    (all-or-nothing keeps the per-row error timing of a row-wise map)."""
    out_schema = Schema(tuple(name for _, name in outputs))
    exprs = tuple(expr for expr, _ in outputs)
    columns: list[Column] = []
    for expr in exprs:
        col = _vec_expr(expr, table)
        if col is None:
            columns = []
            break
        columns.append(col)
    if columns or not exprs:
        return ColumnarTable(out_schema, columns, table.nrows, table.mult)
    row_fn = compile_row(exprs, table.schema)
    rows = [row_fn(row) for row in table.tuples()]
    return ColumnarTable.from_rows(out_schema, rows, table.mult)


# -- coded row identity (dedup / difference / aggregation) -------------------

def _column_codes(col: Column, n: int):
    """Integer codes equating slots exactly when Python ``==`` would, or
    ``None`` when codes cannot be exact (object columns, NaN, huge
    ints).  Code 0 is reserved for NULL (None == None)."""
    if not col.is_array or col.tag == "object":
        return None
    if col.tag == "float":
        data = col.data
        if col.valid is None:
            if np.isnan(data).any():
                return None
        elif np.isnan(data[col.valid]).any():
            return None
        data = data + 0.0  # -0.0 == 0.0 must share a code
    else:
        # int codes come straight from the int64 data (no float cast
        # anywhere, so no exactness bound); bool and str likewise.
        data = col.data
    uniq, inverse = np.unique(data, return_inverse=True)
    codes = inverse.astype(np.int64) + 1
    if col.valid is not None:
        codes = np.where(col.valid, codes, 0)
    return codes, len(uniq) + 1


def _row_codes(table: ColumnarTable):
    """One int64 code per row, equal iff the row tuples compare equal;
    ``None`` when any column resists exact coding."""
    if not table.columns:
        return None
    total = np.zeros(table.nrows, dtype=np.int64)
    radix = 1
    for col in table.columns:
        coded = _column_codes(col, table.nrows)
        if coded is None:
            return None
        codes, base = coded
        if radix * base >= _INT_ARITH_BOUND:
            return None
        total = total * base + codes
        radix *= base
    return total


def _dedup(table: ColumnarTable) -> ColumnarTable:
    """Set-semantics dedup keeping first occurrences in row order."""
    codes = _row_codes(table)
    if codes is not None:
        _, first = np.unique(codes, return_index=True)
        return table.take(np.sort(first))
    seen: set = set()
    add = seen.add
    keep = []
    for i, row in enumerate(table.tuples()):
        if row not in seen:
            add(row)
            keep.append(i)
    return table.take(keep)


def _aggregate(table: ColumnarTable) -> ColumnarTable:
    """Bag-semantics duplicate aggregation: sum multiplicities per
    distinct row, keeping first-occurrence row order."""
    mult = table.mult if table.mult is not None else [1] * table.nrows
    codes = _row_codes(table)
    if codes is not None and all(m < FLOAT_EXACT_INT_BOUND for m in mult):
        _, first, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        sums = np.bincount(
            inverse, weights=np.asarray(mult, dtype=np.float64)
        )
        order = np.argsort(first, kind="stable")
        out = table.take(first[order])
        out.mult = [int(s) for s in sums[order].tolist()]
        return out
    counts: dict[tuple, int] = {}
    firsts: dict[tuple, int] = {}
    for i, (row, count) in enumerate(zip(table.tuples(), mult)):
        if row in counts:
            counts[row] += count
        else:
            counts[row] = count
            firsts[row] = i
    keep = list(firsts.values())
    out = table.take(keep)
    out.mult = list(counts.values())
    return out


def _difference_set(
    left: ColumnarTable, right: ColumnarTable
) -> ColumnarTable:
    """Set difference: coded anti-join when exact, Python set of the
    right side's rows otherwise."""
    joint = None
    if left.columns:
        # Joint coding over the concatenation guarantees both sides
        # share codes; recover the per-side slices afterwards.
        joint = _row_codes(left.concat(right))
    if joint is not None:
        lpart = joint[: left.nrows]
        rpart = joint[left.nrows:]
        keep = np.nonzero(~np.isin(lpart, rpart))[0]
        return left.take(keep)
    removed = set(right.tuples())
    keep = [i for i, row in enumerate(left.tuples()) if row not in removed]
    return left.take(keep)


def _monus(left: ColumnarTable, right: ColumnarTable) -> ColumnarTable:
    """Bag difference over aggregated sides: counts subtracted, floored
    at zero."""
    left = _aggregate(left)
    right = _aggregate(right)
    lmult = left.mult if left.mult is not None else [1] * left.nrows
    lrows = left.tuples()  # one materialization: keys stay identical
    counts: dict[tuple, int] = dict(zip(lrows, lmult))
    rmult = right.mult if right.mult is not None else [1] * right.nrows
    for row, count in zip(right.tuples(), rmult):
        if row in counts:
            counts[row] -= count
    keep = []
    mult = []
    for i, row in enumerate(lrows):
        count = counts[row]
        if count > 0:
            keep.append(i)
            mult.append(count)
    out = left.take(keep)
    out.mult = mult
    return out


# -- equi-join matching ------------------------------------------------------

def split_equijoin_condition(
    condition: Expr, left: Schema, right: Schema
) -> tuple[tuple[Expr, ...], tuple[Expr, ...], Expr | None]:
    """Split a join condition into hash keys and a residual.

    Returns ``(left_keys, right_keys, residual)`` where the i-th left and
    right key expressions must compare equal for a pair to join.  A
    conjunct qualifies as a key pair when it is an equality whose sides
    read only attributes of one input each (constants qualify for either
    side).  Everything else — including conjuncts with free symbolic
    variables, which must keep the interpreter's raise-on-read timing —
    lands in the residual.  ``residual`` is ``None`` when nothing
    remains.
    """
    left_attrs = set(left.attributes)
    right_attrs = set(right.attributes)
    left_keys: list[Expr] = []
    right_keys: list[Expr] = []
    residual: list[Expr] = []
    for conjunct in conjuncts_of(condition):
        if (
            isinstance(conjunct, Cmp)
            and conjunct.op == "="
            and not variables_of(conjunct)
        ):
            a_attrs = attributes_of(conjunct.left)
            b_attrs = attributes_of(conjunct.right)
            if a_attrs <= left_attrs and b_attrs <= right_attrs:
                left_keys.append(conjunct.left)
                right_keys.append(conjunct.right)
                continue
            if a_attrs <= right_attrs and b_attrs <= left_attrs:
                left_keys.append(conjunct.right)
                right_keys.append(conjunct.left)
                continue
        residual.append(conjunct)
    if residual:
        return tuple(left_keys), tuple(right_keys), and_(*residual)
    return tuple(left_keys), tuple(right_keys), None


def _null_free(key: tuple) -> bool:
    """Whether a join key can match at all under ``=`` semantics.

    NULL keys never match (2VL), and neither do NaN keys: the
    interpreter evaluates ``nan == nan`` to False, while a dict probe
    would match the same NaN *object* via the identity fast path — so
    both are excluded from the build table.
    """
    for value in key:
        if value is None or value != value:
            return False
    return True


def _key_columns(
    table: ColumnarTable, keys: Sequence[Expr]
) -> list[Column]:
    """Evaluate join-key expressions as columns (kernels when possible,
    one compiled row closure otherwise — same errors, same rows)."""
    columns: list[Column] = []
    for key in keys:
        col = _vec_expr(key, table)
        if col is None:
            columns = []
            break
        columns.append(col)
    if columns:
        return columns
    key_fn = compile_row(tuple(keys), table.schema)
    values = [key_fn(row) for row in table.tuples()]
    return [
        column_from_values([v[i] for v in values])
        for i in range(len(keys))
    ]


def _key_valid_mask(columns: list[Column], n: int):
    """Rows whose key is NULL- and NaN-free (the only matchable rows)."""
    mask = np.ones(n, dtype=bool)
    for col in columns:
        if col.valid is not None:
            mask &= col.valid
        if col.tag == "float":
            mask &= ~np.isnan(col.data)
    return mask


def _dict_match(
    lcols: list[Column], rcols: list[Column], nl: int, nr: int
):
    """Hash-join on Python key tuples: build right (NULL/NaN-free keys
    only), probe left in row order."""
    rkeys = list(zip(*[column_values(c) for c in rcols]))
    lkeys = list(zip(*[column_values(c) for c in lcols]))
    table: dict[tuple, list[int]] = {}
    setdefault = table.setdefault
    for j in range(nr):
        key = rkeys[j] if rkeys else ()
        if _null_free(key):
            setdefault(key, []).append(j)
    get = table.get
    li: list[int] = []
    ri: list[int] = []
    for i in range(nl):
        matches = get(lkeys[i] if lkeys else ())
        if matches is None:
            continue
        li.extend([i] * len(matches))
        ri.extend(matches)
    return li, ri


def _equi_match(
    left: ColumnarTable,
    right: ColumnarTable,
    left_keys: Sequence[Expr],
    right_keys: Sequence[Expr],
):
    """Row-index pairs (li, ri) of key-equal rows, probe (left) outer.

    Build side first (its key errors surface before the probe's), then
    coded vectorized matching: per key pair a shared integer coding over
    build+probe values, folded into one radix code per row, a one-hash
    bloom bitmap prefilter on the probe codes, then stable
    argsort/searchsorted expansion.  Anything the coding cannot capture
    exactly routes to the dict join."""
    # Build (right) before probe (left).
    rcols = _key_columns(right, right_keys)
    lcols = _key_columns(left, left_keys)
    nl, nr = left.nrows, right.nrows
    for lc, rc in zip(lcols, rcols):
        groups = {
            "num" if t in _NUMERIC_TAGS else t
            for t in (lc.tag, rc.tag)
        }
        if "object" in groups:
            return _dict_match(lcols, rcols, nl, nr)
        if len(groups) > 1:
            return [], []  # cross-group equality is uniformly False
        if not lc.is_array or not rc.is_array:
            return _dict_match(lcols, rcols, nl, nr)
    bsel = np.nonzero(_key_valid_mask(rcols, nr))[0]
    psel = np.nonzero(_key_valid_mask(lcols, nl))[0]
    if len(bsel) == 0 or len(psel) == 0:
        return [], []
    bcode = np.zeros(len(bsel), dtype=np.int64)
    pcode = np.zeros(len(psel), dtype=np.int64)
    radix = 1
    for lc, rc in zip(lcols, rcols):
        if lc.tag == "str":
            bv = rc.data[bsel]
            pv = lc.data[psel]
        elif lc.tag in ("int", "bool") and rc.tag in ("int", "bool"):
            bv = _as_int(rc)[bsel]
            pv = _as_int(lc)[psel]
        else:
            # A float is involved: compare through float64 (+0.0 folds
            # -0.0 and +0.0 together, as Python equality does).
            if not (_float_exact(lc) and _float_exact(rc)):
                return _dict_match(lcols, rcols, nl, nr)
            bv = _as_float(rc)[bsel] + 0.0
            pv = _as_float(lc)[psel] + 0.0
        combined = np.concatenate([bv, pv])
        uniq, inverse = np.unique(combined, return_inverse=True)
        base = len(uniq) + 1
        if radix * base >= _INT_ARITH_BOUND:
            return _dict_match(lcols, rcols, nl, nr)
        inverse = inverse.astype(np.int64)
        bcode = bcode * base + inverse[: len(bsel)]
        pcode = pcode * base + inverse[len(bsel):]
        radix *= base
    # Bloom-bitmap prefilter: one hash (the low code bits) over a
    # power-of-two bitmap ~4x the build side; probe rows whose slot is
    # unset cannot match and skip the sort probe entirely.
    size = 1 << max(8, (4 * len(bsel)).bit_length())
    bloom = np.zeros(size, dtype=bool)
    bloom[bcode & (size - 1)] = True
    maybe = bloom[pcode & (size - 1)]
    psel = psel[maybe]
    pcode = pcode[maybe]
    if len(psel) == 0:
        return [], []
    order = np.argsort(bcode, kind="stable")
    sorted_codes = bcode[order]
    lo = np.searchsorted(sorted_codes, pcode, side="left")
    hi = np.searchsorted(sorted_codes, pcode, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return [], []
    li = np.repeat(psel, counts)
    starts = np.repeat(lo, counts)
    shift = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.arange(total, dtype=np.int64) - shift
    ri = bsel[order[starts + offsets]]
    return li, ri


def _nested_loop_join(
    left: ColumnarTable,
    right: ColumnarTable,
    schema: Schema,
    residual_expr: Expr | None,
) -> ColumnarTable:
    """Joins with no equi-keys: chunked cross-product index arrays with
    the residual applied per chunk (bounds peak memory)."""
    nl, nr = left.nrows, right.nrows
    if nl == 0 or nr == 0:
        return _take_pairs(left, right, schema, [], [])
    chunk = max(1, _NESTED_CHUNK_PAIRS // nr)
    li_parts = []
    ri_parts = []
    for start in range(0, nl, chunk):
        stop = min(start + chunk, nl)
        li = np.repeat(np.arange(start, stop, dtype=np.int64), nr)
        ri = np.tile(np.arange(nr, dtype=np.int64), stop - start)
        if residual_expr is not None:
            part = _take_pairs(left, right, schema, li, ri)
            mask = vectorize_condition(residual_expr, part)
            if mask is None:
                predicate = compile_predicate(residual_expr, schema)
                keep = [
                    k for k, row in enumerate(part.tuples())
                    if predicate(row)
                ]
                li = li[keep]
                ri = ri[keep]
            else:
                li = li[mask]
                ri = ri[mask]
        li_parts.append(li)
        ri_parts.append(ri)
    li = np.concatenate(li_parts) if li_parts else []
    ri = np.concatenate(ri_parts) if ri_parts else []
    return _take_pairs(left, right, schema, li, ri)


# -- operator evaluation -----------------------------------------------------

def _eval(op: Operator, db: Any, bag: bool) -> ColumnarTable:
    if isinstance(op, RelScan):
        relation = db[op.name]
        if bag:
            return columnar_of_bag(relation)
        return columnar_of_relation(relation)
    if isinstance(op, Singleton):
        return ColumnarTable.from_rows(
            op.schema, [op.row], [1] if bag else None
        )
    if isinstance(op, Select):
        return _filter_table(_eval(op.input, db, bag), op.condition)
    if isinstance(op, Project):
        projected = _project_table(_eval(op.input, db, bag), op.outputs)
        return _aggregate(projected) if bag else projected
    if isinstance(op, Union):
        left = _eval(op.left, db, bag)
        right = _eval(op.right, db, bag)
        check_union_compatible(
            left.schema, right.schema, "bag union" if bag else "union"
        )
        combined = left.concat(right)
        return _aggregate(combined) if bag else _dedup(combined)
    if isinstance(op, Difference):
        left = _eval(op.left, db, bag)
        right = _eval(op.right, db, bag)
        check_union_compatible(
            left.schema, right.schema,
            "bag difference" if bag else "difference",
        )
        return _monus(left, right) if bag else _difference_set(left, right)
    if isinstance(op, Join):
        left = _eval(op.left, db, bag)
        right = _eval(op.right, db, bag)
        schema = left.schema.concat(right.schema)
        left_keys, right_keys, residual_expr = split_equijoin_condition(
            op.condition, left.schema, right.schema
        )
        if residual_expr is not None and residual_expr == TRUE:
            residual_expr = None
        if left_keys:
            li, ri = _equi_match(left, right, left_keys, right_keys)
            joined = _take_pairs(left, right, schema, li, ri)
            if residual_expr is not None:
                joined = _filter_table(joined, residual_expr)
        else:
            joined = _nested_loop_join(left, right, schema, residual_expr)
        return _aggregate(joined) if bag else joined
    raise TypeError(f"unknown operator {op!r}")


def _check_base_relations(op: Operator, db: Any) -> None:
    for name in base_relations(op):
        if name not in db:
            raise SchemaError(f"no relation named {name!r}")


def execute_plan_vector(op: Operator, db: Any) -> Relation:
    """Evaluate an operator tree columnar under set semantics."""
    _check_base_relations(op, db)
    return _eval(op, db, bag=False).to_relation()


def execute_pair_vector(
    query_h: Operator, query_m: Operator, db: Any
) -> tuple[ColumnarTable, ColumnarTable]:
    """Evaluate a reenactment query pair columnar under set semantics,
    to the two result tables: duplicates are not removed and no row is
    materialized — :func:`repro.relational.columnar.sorted_delta`
    compares the tables as they are."""
    results = []
    for query in (query_h, query_m):
        _check_base_relations(query, db)
        results.append(_eval(query, db, bag=False))
    return results[0], results[1]


def execute_plan_vector_bag(op: Operator, db: Any):
    """Evaluate an operator tree columnar under bag semantics."""
    _check_base_relations(op, db)
    return _eval(op, db, bag=True).to_bag()
