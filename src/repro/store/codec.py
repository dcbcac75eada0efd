"""JSON codec for the persistent history store.

Everything the store writes — statements in the log, database snapshots
in checkpoint files — goes through this module.  The encoding is plain
JSON (one object per statement / snapshot) chosen for exact round
tripping rather than readability-first SQL:

* Python scalars survive unchanged: ``json`` distinguishes ``true`` from
  ``1`` and ``1`` from ``1.0``, and (with the stdlib's default
  ``allow_nan``) emits ``Infinity``/``NaN`` literals that it parses
  back, so ``Const(True)`` never comes back as ``Const(1)`` the way a
  SQL-text round trip would collapse it,
* expression / operator / statement trees are tagged by node kind and
  rebuilt structurally, so ``decode(encode(x)) == x`` holds as dataclass
  equality for every statement the engine can produce,
* both set (:class:`~repro.relational.relation.Relation`) and bag
  (:class:`~repro.relational.bag.BagRelation`) snapshots are supported;
  a snapshot records which semantics it carries.

The store's framing (JSONL log, checkpoint files, recovery) lives in
:mod:`repro.store.history_store`; this module is pure value <-> JSON.
"""

from __future__ import annotations

from typing import Any

from ..relational.algebra import (
    Difference,
    Join,
    Operator,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
)
from ..relational.bag import BagDatabase, BagRelation
from ..relational.database import Database
from ..relational.expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    Expr,
    If,
    IsNull,
    Logic,
    Not,
    Var,
)
from ..relational.relation import Relation, sort_rows
from ..relational.schema import Schema, SchemaError
from ..relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    Statement,
    UpdateStatement,
)

__all__ = [
    "CodecError",
    "encode_expr",
    "decode_expr",
    "encode_operator",
    "decode_operator",
    "encode_statement",
    "decode_statement",
    "encode_database",
    "decode_database",
]


class CodecError(ValueError):
    """Raised when a JSON payload does not decode to a known node."""


# -- expressions -------------------------------------------------------------

def encode_expr(expr: Expr) -> dict:
    if isinstance(expr, Const):
        return {"e": "const", "v": expr.value}
    if isinstance(expr, Attr):
        return {"e": "attr", "n": expr.name}
    if isinstance(expr, Var):
        return {"e": "var", "n": expr.name}
    if isinstance(expr, Arith):
        return {
            "e": "arith", "op": expr.op,
            "l": encode_expr(expr.left), "r": encode_expr(expr.right),
        }
    if isinstance(expr, Cmp):
        return {
            "e": "cmp", "op": expr.op,
            "l": encode_expr(expr.left), "r": encode_expr(expr.right),
        }
    if isinstance(expr, Logic):
        return {
            "e": "logic", "op": expr.op,
            "l": encode_expr(expr.left), "r": encode_expr(expr.right),
        }
    if isinstance(expr, Not):
        return {"e": "not", "x": encode_expr(expr.operand)}
    if isinstance(expr, IsNull):
        return {"e": "isnull", "x": encode_expr(expr.operand)}
    if isinstance(expr, If):
        return {
            "e": "if",
            "c": encode_expr(expr.cond),
            "t": encode_expr(expr.then),
            "f": encode_expr(expr.orelse),
        }
    raise CodecError(f"cannot encode expression node {type(expr).__name__}")


def decode_expr(data: dict) -> Expr:
    try:
        kind = data["e"]
    except (TypeError, KeyError):
        raise CodecError(f"not an expression payload: {data!r}") from None
    try:
        return _decode_expr_kind(kind, data)
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(
            f"malformed {kind!r} expression payload: {exc}"
        ) from None


def _decode_expr_kind(kind: str, data: dict) -> Expr:
    if kind == "const":
        return Const(data["v"])
    if kind == "attr":
        return Attr(data["n"])
    if kind == "var":
        return Var(data["n"])
    if kind == "arith":
        return Arith(data["op"], decode_expr(data["l"]), decode_expr(data["r"]))
    if kind == "cmp":
        return Cmp(data["op"], decode_expr(data["l"]), decode_expr(data["r"]))
    if kind == "logic":
        return Logic(data["op"], decode_expr(data["l"]), decode_expr(data["r"]))
    if kind == "not":
        return Not(decode_expr(data["x"]))
    if kind == "isnull":
        return IsNull(decode_expr(data["x"]))
    if kind == "if":
        return If(
            decode_expr(data["c"]), decode_expr(data["t"]),
            decode_expr(data["f"]),
        )
    raise CodecError(f"unknown expression kind {kind!r}")


# -- operators ---------------------------------------------------------------

def encode_operator(op: Operator) -> dict:
    if isinstance(op, RelScan):
        return {"q": "scan", "name": op.name}
    if isinstance(op, Singleton):
        return {
            "q": "singleton",
            "schema": list(op.schema.attributes),
            "row": list(op.row),
        }
    if isinstance(op, Project):
        return {
            "q": "project",
            "input": encode_operator(op.input),
            "outputs": [
                [encode_expr(expr), name] for expr, name in op.outputs
            ],
        }
    if isinstance(op, Select):
        return {
            "q": "select",
            "input": encode_operator(op.input),
            "cond": encode_expr(op.condition),
        }
    if isinstance(op, Union):
        return {
            "q": "union",
            "l": encode_operator(op.left), "r": encode_operator(op.right),
        }
    if isinstance(op, Difference):
        return {
            "q": "difference",
            "l": encode_operator(op.left), "r": encode_operator(op.right),
        }
    if isinstance(op, Join):
        return {
            "q": "join",
            "l": encode_operator(op.left), "r": encode_operator(op.right),
            "cond": encode_expr(op.condition),
        }
    raise CodecError(f"cannot encode operator node {type(op).__name__}")


def decode_operator(data: dict) -> Operator:
    try:
        kind = data["q"]
    except (TypeError, KeyError):
        raise CodecError(f"not an operator payload: {data!r}") from None
    try:
        return _decode_operator_kind(kind, data)
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise CodecError(
            f"malformed {kind!r} operator payload: {exc}"
        ) from None


def _decode_operator_kind(kind: str, data: dict) -> Operator:
    if kind == "scan":
        return RelScan(data["name"])
    if kind == "singleton":
        return Singleton(Schema(tuple(data["schema"])), tuple(data["row"]))
    if kind == "project":
        return Project(
            decode_operator(data["input"]),
            tuple(
                (decode_expr(expr), name) for expr, name in data["outputs"]
            ),
        )
    if kind == "select":
        return Select(decode_operator(data["input"]), decode_expr(data["cond"]))
    if kind == "union":
        return Union(decode_operator(data["l"]), decode_operator(data["r"]))
    if kind == "difference":
        return Difference(
            decode_operator(data["l"]), decode_operator(data["r"])
        )
    if kind == "join":
        return Join(
            decode_operator(data["l"]), decode_operator(data["r"]),
            decode_expr(data["cond"]),
        )
    raise CodecError(f"unknown operator kind {kind!r}")


# -- statements --------------------------------------------------------------

def encode_statement(stmt: Statement) -> dict:
    if isinstance(stmt, UpdateStatement):
        return {
            "s": "update",
            "relation": stmt.relation,
            "set": [
                [attr, encode_expr(expr)]
                for attr, expr in stmt.set_clauses.items()
            ],
            "where": encode_expr(stmt.condition),
        }
    if isinstance(stmt, DeleteStatement):
        return {
            "s": "delete",
            "relation": stmt.relation,
            "where": encode_expr(stmt.condition),
        }
    if isinstance(stmt, InsertTuple):
        return {
            "s": "insert",
            "relation": stmt.relation,
            "values": list(stmt.values),
        }
    if isinstance(stmt, InsertQuery):
        return {
            "s": "insert_query",
            "relation": stmt.relation,
            "query": encode_operator(stmt.query),
        }
    raise CodecError(f"cannot encode statement {type(stmt).__name__}")


def decode_statement(data: dict) -> Statement:
    try:
        kind = data["s"]
    except (TypeError, KeyError):
        raise CodecError(f"not a statement payload: {data!r}") from None
    try:
        return _decode_statement_kind(kind, data)
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        # Missing keys, wrong container shapes, bad clause values: all
        # malformed *payloads*, surfaced uniformly so callers (the HTTP
        # 400 arm, log recovery) need only one exception type.
        raise CodecError(
            f"malformed {kind!r} statement payload: {exc}"
        ) from None


def _decode_statement_kind(kind: str, data: dict) -> Statement:
    if kind == "update":
        return UpdateStatement(
            data["relation"],
            {attr: decode_expr(expr) for attr, expr in data["set"]},
            decode_expr(data["where"]),
        )
    if kind == "delete":
        return DeleteStatement(data["relation"], decode_expr(data["where"]))
    if kind == "insert":
        return InsertTuple(data["relation"], tuple(data["values"]))
    if kind == "insert_query":
        return InsertQuery(data["relation"], decode_operator(data["query"]))
    raise CodecError(f"unknown statement kind {kind!r}")


# -- snapshots ---------------------------------------------------------------

def _encode_relation(relation: Relation) -> dict:
    return {
        "attributes": list(relation.schema.attributes),
        "rows": [list(row) for row in relation.sorted_rows()],
    }


def _encode_bag_relation(relation: BagRelation) -> dict:
    return {
        "attributes": list(relation.schema.attributes),
        "rows": [
            [list(row), relation.multiplicities[row]]
            for row in sort_rows(relation.multiplicities)
        ],
    }


def encode_database(db: Database | BagDatabase) -> dict:
    """Encode a set or bag database snapshot (kind is recorded)."""
    if isinstance(db, BagDatabase):
        return {
            "kind": "bag",
            "relations": {
                name: _encode_bag_relation(db[name])
                for name in db.relation_names()
            },
        }
    return {
        "kind": "set",
        "relations": {
            name: _encode_relation(db[name]) for name in db.relation_names()
        },
    }


def decode_database(data: dict) -> Database | BagDatabase:
    try:
        kind = data["kind"]
        relations = data["relations"]
    except (TypeError, KeyError):
        raise CodecError(f"not a database payload: {data!r}") from None
    try:
        return _decode_database_kind(kind, relations)
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError, SchemaError, AttributeError) as exc:
        raise CodecError(f"malformed database payload: {exc}") from None


def _decode_database_kind(kind: str, relations: dict) -> Database | BagDatabase:
    if kind == "set":
        return Database(
            {
                name: Relation.from_rows(
                    Schema(tuple(payload["attributes"])),
                    [tuple(row) for row in payload["rows"]],
                )
                for name, payload in relations.items()
            }
        )
    if kind == "bag":
        return BagDatabase(
            {
                name: BagRelation(
                    Schema(tuple(payload["attributes"])),
                    {tuple(row): count for row, count in payload["rows"]},
                )
                for name, payload in relations.items()
            }
        )
    raise CodecError(f"unknown database kind {kind!r}")
