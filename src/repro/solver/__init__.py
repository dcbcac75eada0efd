"""Constraint-solving substrate.

Replaces the paper's CPLEX dependency: condition formulas are compiled to
MILPs with the Figure-13 rules (:mod:`repro.solver.compiler`) and solved
for feasibility with branch and bound over scipy LP relaxations
(:mod:`repro.solver.branch_bound`).  :mod:`repro.solver.session` is the
entry point used by program slicing — many checks behind one prepared
prefix, decided by :mod:`repro.solver.intervals` where possible —
:mod:`repro.solver.sat` its one-shot form, and
:mod:`repro.solver.bruteforce` cross-validates the whole pipeline in tests.
"""

from .branch_bound import Feasibility, SolveResult, is_feasible, solve
from .bruteforce import enumerate_satisfying, is_satisfiable_bruteforce
from .intervals import IntervalOutcome, interval_presolve
from .compiler import (
    AffineForm,
    FormulaCompiler,
    StringEncoder,
    UnsupportedExpression,
)
from .milp import LinearConstraint, MILPModel, ModelError, Variable
from .sat import check_satisfiable
from .session import SatResult, SolverConfig, SolverSession

__all__ = [
    "MILPModel", "Variable", "LinearConstraint", "ModelError",
    "FormulaCompiler", "AffineForm", "StringEncoder",
    "UnsupportedExpression",
    "Feasibility", "SolveResult", "solve", "is_feasible",
    "SatResult", "SolverConfig", "SolverSession", "check_satisfiable",
    "enumerate_satisfying", "is_satisfiable_bruteforce",
    "IntervalOutcome", "interval_presolve",
]
