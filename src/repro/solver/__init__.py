"""Constraint-solving substrate.

Replaces the paper's CPLEX dependency.  Condition formulas are decided
over interval boxes (:mod:`repro.solver.intervals`): a presolver that
meets DNF boxes answers most checks, and an exact case split on one
atom at a time answers the rest, with a witness when satisfiable.
:mod:`repro.solver.session` is the entry point used by program slicing —
many checks behind one prepared prefix — :mod:`repro.solver.sat` its
one-shot form, and :mod:`repro.solver.bruteforce` cross-validates the
whole pipeline in tests.
"""

from .bruteforce import enumerate_satisfying, is_satisfiable_bruteforce
from .intervals import IntervalOutcome, case_split, interval_presolve
from .sat import check_satisfiable
from .session import SatResult, SolverSession

__all__ = [
    "SatResult", "SolverSession", "check_satisfiable",
    "enumerate_satisfying", "is_satisfiable_bruteforce",
    "IntervalOutcome", "case_split", "interval_presolve",
]
