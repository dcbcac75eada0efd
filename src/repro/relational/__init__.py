"""Relational substrate: expressions, relations, statements, histories.

This subpackage is the from-scratch replacement for the PostgreSQL backend
the paper's middleware targets: an in-memory set-semantics relational
engine with a relational-algebra evaluator, a SQL-ish parser, and a
versioned database providing time travel.
"""

from .algebra import (
    Difference,
    Join,
    Operator,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
    evaluate_query,
    evaluate_query_interpreted,
)
from .exec import (
    BACKEND_COMPILED,
    BACKEND_INTERPRETED,
    BACKEND_SQLITE,
    BACKEND_VECTOR,
    BACKENDS,
)
from .database import Database
from .expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    Expr,
    FALSE,
    If,
    IsNull,
    Logic,
    Not,
    TRUE,
    Var,
    and_,
    col,
    eq,
    evaluate,
    ge,
    gt,
    if_,
    le,
    lit,
    lt,
    neq,
    not_,
    or_,
    simplify,
)
from .bag import (
    BagDatabase,
    BagRelation,
    apply_statement_bag,
    bag_delta,
    evaluate_query_bag,
    evaluate_query_bag_interpreted,
    execute_history_bag,
)
from .csvio import (
    bag_from_csv,
    bag_to_csv,
    load_database_dir,
    relation_from_csv,
    relation_to_csv,
)
from .history import History
from .optimizer import OptimizerConfig, optimize
from .parser import parse_expression, parse_history, parse_statement
from .relation import Relation
from .schema import Schema
from .sqlgen import history_to_sql, query_to_sql, statement_to_sql
from .statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    Statement,
    UpdateStatement,
    is_no_op,
    is_tuple_independent,
    no_op,
)
from .versioning import VersionedDatabase

__all__ = [
    # schema / data
    "Schema", "Relation", "Database", "VersionedDatabase",
    # expressions
    "Expr", "Const", "Attr", "Var", "Arith", "Cmp", "Logic", "Not",
    "IsNull", "If", "TRUE", "FALSE",
    "and_", "or_", "not_", "eq", "neq", "lt", "le", "gt", "ge", "if_",
    "col", "lit", "evaluate", "simplify",
    # statements / histories
    "Statement", "UpdateStatement", "DeleteStatement", "InsertTuple",
    "InsertQuery", "History", "no_op", "is_no_op", "is_tuple_independent",
    # algebra
    "Operator", "RelScan", "Singleton", "Project", "Select", "Union",
    "Difference", "Join", "evaluate_query", "evaluate_query_interpreted",
    # execution backends
    "BACKEND_COMPILED", "BACKEND_INTERPRETED", "BACKEND_SQLITE",
    "BACKEND_VECTOR",
    "BACKENDS",
    # parsing / rendering
    "parse_expression", "parse_statement", "parse_history",
    "statement_to_sql", "query_to_sql", "history_to_sql",
    "OptimizerConfig", "optimize",
    "relation_from_csv", "relation_to_csv", "load_database_dir",
    "bag_from_csv", "bag_to_csv",
    "BagRelation", "BagDatabase", "apply_statement_bag",
    "execute_history_bag", "evaluate_query_bag",
    "evaluate_query_bag_interpreted", "bag_delta",
]
