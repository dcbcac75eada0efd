"""Interval-propagation presolver.

The dependency checks of Section 9 mostly produce conjunctions of range
comparisons over a handful of variables (window-overlap questions).  A
full MILP solve is overkill for those; this presolver decides many of them
by interval reasoning:

* normalize the formula to DNF (with a size cutoff — blowup aborts),
* for each disjunct, intersect per-variable intervals implied by its
  atomic comparisons,
* a disjunct with a non-empty box *and no residual non-interval atoms* is
  a witness (SAT); if every disjunct's box is empty the formula is UNSAT;
  anything else is inconclusive and falls through to the MILP.

Only comparisons of the shape ``var op constant`` / ``constant op var``
(over numbers or strings — strings only for ``=``/``!=``) participate;
any other atom makes its disjunct inconclusive-for-SAT but can still be
proven UNSAT by the box alone.

The n dependency checks of one what-if are ``Φ_D ∧ rest_i`` with the
same ``Φ_D``, so the work is split at that seam: :class:`IntervalPrefix`
folds the shared prefix into its boxes once, and ``decide(rest)`` folds
each disjunct of ``rest`` once and meets it with each prefix box
(:func:`_meet`, read-only: nothing is copied, no atom is folded twice).
A box's final state does not depend on the order its atoms arrive in,
and ``impossible`` never un-sets, so meeting two folded boxes ends where
folding all their atoms into one box ends: this is the decision
procedure above, not an approximation of it.  :func:`interval_presolve`
is the same code with an empty prefix.

Nothing here simplifies: callers hand in simplified formulas
(:class:`repro.solver.session.SolverSession` is the one place that calls
``simplify``).  Unsimplified input is still decided soundly, only less
often — a foldable ``1 <= 2`` atom is a residual.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..relational.expressions import (
    Attr,
    Cmp,
    Const,
    Expr,
    Logic,
    Not,
    TRUE,
    Var,
)

__all__ = ["IntervalOutcome", "IntervalPrefix", "interval_presolve"]

#: Abort DNF expansion beyond this many disjuncts.
_DNF_LIMIT = 256


class IntervalOutcome(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class _Box:
    """Per-variable closed/open interval intersection plus string facts."""

    lower: dict[str, float]
    lower_strict: dict[str, bool]
    upper: dict[str, float]
    upper_strict: dict[str, bool]
    string_eq: dict[str, str]
    string_neq: dict[str, set[str]]
    numeric_neq: dict[str, set[float]]
    impossible: bool = False
    residual: bool = False  # saw an atom we could not interpret

    @classmethod
    def empty(cls) -> "_Box":
        return cls({}, {}, {}, {}, {}, {}, {})

    def numeric_names(self) -> set[str]:
        return self.lower.keys() | self.upper.keys() | self.numeric_neq.keys()

    def string_names(self) -> set[str]:
        return self.string_eq.keys() | self.string_neq.keys()

    def finalize(self) -> None:
        """Checks that need the complete fact set: point intervals hitting
        an exclusion, and variables with both string and numeric facts."""
        for name, excluded in self.numeric_neq.items():
            low = self.lower.get(name, -math.inf)
            high = self.upper.get(name, math.inf)
            if low == high and low in excluded:
                self.impossible = True
        if self.numeric_names() & self.string_names():
            self.residual = True  # mixed-type facts: let the MILP decide

    def add_lower(self, name: str, bound: float, strict: bool) -> None:
        current = self.lower.get(name, -math.inf)
        if bound > current or (
            bound == current and strict and not self.lower_strict.get(name, False)
        ):
            self.lower[name] = bound
            self.lower_strict[name] = strict
        self._check(name)

    def add_upper(self, name: str, bound: float, strict: bool) -> None:
        current = self.upper.get(name, math.inf)
        if bound < current or (
            bound == current and strict and not self.upper_strict.get(name, False)
        ):
            self.upper[name] = bound
            self.upper_strict[name] = strict
        self._check(name)

    def add_string_eq(self, name: str, value: str) -> None:
        existing = self.string_eq.get(name)
        if existing is not None and existing != value:
            self.impossible = True
            return
        if value in self.string_neq.get(name, set()):
            self.impossible = True
            return
        self.string_eq[name] = value

    def add_string_neq(self, name: str, value: str) -> None:
        if self.string_eq.get(name) == value:
            self.impossible = True
            return
        self.string_neq.setdefault(name, set()).add(value)

    def _check(self, name: str) -> None:
        low = self.lower.get(name, -math.inf)
        high = self.upper.get(name, math.inf)
        if low > high:
            self.impossible = True
        elif low == high and (
            self.lower_strict.get(name, False)
            or self.upper_strict.get(name, False)
        ):
            self.impossible = True


def _to_nnf(expr: Expr, negated: bool = False) -> Expr:
    """Push negations to the atoms (negation normal form)."""
    if isinstance(expr, Not):
        return _to_nnf(expr.operand, not negated)
    if isinstance(expr, Logic):
        op = expr.op
        if negated:
            op = "or" if op == "and" else "and"
        return Logic(op, _to_nnf(expr.left, negated), _to_nnf(expr.right, negated))
    if isinstance(expr, Cmp) and negated:
        flipped = {
            "=": "!=", "!=": "=",
            "<": ">=", ">=": "<",
            ">": "<=", "<=": ">",
        }[expr.op]
        return Cmp(flipped, expr.left, expr.right)
    if isinstance(expr, Const) and negated:
        return Const(not bool(expr.value))
    if negated:
        return Not(expr)
    return expr


def _dnf(expr: Expr) -> list[list[Expr]] | None:
    """Expand NNF into a list of conjunctions of atoms; None on blowup."""
    if isinstance(expr, Logic):
        if expr.op == "or":
            left = _dnf(expr.left)
            right = _dnf(expr.right)
            if left is None or right is None:
                return None
            combined = left + right
            return combined if len(combined) <= _DNF_LIMIT else None
        left = _dnf(expr.left)
        right = _dnf(expr.right)
        if left is None or right is None:
            return None
        product = [a + b for a in left for b in right]
        return product if len(product) <= _DNF_LIMIT else None
    return [[expr]]


def _reference_name(expr: Expr) -> str | None:
    if isinstance(expr, (Attr, Var)):
        return expr.name
    return None


def _apply_atom(box: _Box, atom: Expr) -> None:
    """Fold one atom into the box; unknown shapes set ``residual``."""
    if isinstance(atom, Const):
        if atom.value is True:
            return
        if atom.value is False:
            box.impossible = True
            return
        box.residual = True
        return
    if not isinstance(atom, Cmp):
        box.residual = True
        return
    left_name = _reference_name(atom.left)
    right_name = _reference_name(atom.right)
    left_const = atom.left.value if isinstance(atom.left, Const) else None
    right_const = atom.right.value if isinstance(atom.right, Const) else None

    if left_name is not None and isinstance(atom.right, Const):
        name, value, op = left_name, right_const, atom.op
    elif right_name is not None and isinstance(atom.left, Const):
        mirrored = {"<": ">", ">": "<", "<=": ">=", ">=": "<=",
                    "=": "=", "!=": "!="}[atom.op]
        name, value, op = right_name, left_const, mirrored
    else:
        box.residual = True
        return

    if isinstance(value, str):
        if op == "=":
            box.add_string_eq(name, value)
        elif op == "!=":
            box.add_string_neq(name, value)
        else:
            box.residual = True
        return
    if value is None or isinstance(value, bool):
        box.residual = True
        return

    value = float(value)
    if op == "=":
        box.add_lower(name, value, strict=False)
        box.add_upper(name, value, strict=False)
    elif op == "!=":
        # an exclusion from a continuum only matters for point intervals;
        # recorded and re-checked in finalize()
        box.numeric_neq.setdefault(name, set()).add(value)
    elif op == "<":
        box.add_upper(name, value, strict=True)
    elif op == "<=":
        box.add_upper(name, value, strict=False)
    elif op == ">":
        box.add_lower(name, value, strict=True)
    else:  # >=
        box.add_lower(name, value, strict=False)


def _fold(box: _Box, atoms: list[Expr]) -> None:
    """Apply ``atoms`` in turn, stopping once the box is empty."""
    for atom in atoms:
        _apply_atom(box, atom)
        if box.impossible:
            return


def _folded(atoms: list[Expr]) -> _Box:
    """One disjunct's atoms folded into a fresh box."""
    box = _Box.empty()
    _fold(box, atoms)
    return box


def _meet(a: _Box, b: _Box) -> tuple[bool, bool]:
    """``(impossible, residual)`` of the box holding both boxes' facts,
    decided without building it.

    ``a`` is finalized and ``b`` folded, neither impossible, so ``a``'s
    own facts are settled and only what ``b`` adds needs a look: per
    variable ``b`` constrains, the larger lower and the smaller upper
    bound (strictness OR'd on a tie, as ``add_lower`` / ``add_upper``
    keep it), then the checks :meth:`_Box._check`, ``add_string_eq`` /
    ``add_string_neq`` and :meth:`_Box.finalize` would have made.
    """
    inf = math.inf
    for name in b.numeric_names():
        low = a.lower.get(name, -inf)
        low_strict = a.lower_strict.get(name, False)
        other = b.lower.get(name, -inf)
        if other > low:
            low, low_strict = other, b.lower_strict[name]
        elif other == low and b.lower_strict.get(name, False):
            low_strict = True
        high = a.upper.get(name, inf)
        high_strict = a.upper_strict.get(name, False)
        other = b.upper.get(name, inf)
        if other < high:
            high, high_strict = other, b.upper_strict[name]
        elif other == high and b.upper_strict.get(name, False):
            high_strict = True
        if low > high:
            return True, False
        if low == high and (
            low_strict
            or high_strict
            or (name in a.numeric_neq and low in a.numeric_neq[name])
            or (name in b.numeric_neq and low in b.numeric_neq[name])
        ):
            return True, False
    for name, value in b.string_eq.items():
        existing = a.string_eq.get(name)
        if existing is not None and existing != value:
            return True, False
        if name in a.string_neq and value in a.string_neq[name]:
            return True, False
    for name, excluded in b.string_neq.items():
        if a.string_eq.get(name) in excluded:
            return True, False
    if a.residual or b.residual:
        return False, True
    # mixed-type facts over the union of names: let the MILP decide
    if not (a.string_eq or a.string_neq or b.string_eq or b.string_neq):
        return False, False
    strings = a.string_names() | b.string_names()
    return False, not strings.isdisjoint(a.numeric_names() | b.numeric_names())


class IntervalPrefix:
    """The boxes of a conjunction's shared prefix, folded once.

    ``prefix`` is a simplified formula.  One box is kept per DNF disjunct
    of the prefix that is not already empty, finalized here so that facts
    only the prefix holds are settled before any check; ``decide(rest)``
    answers for ``prefix ∧ rest``.  The blow-up cut-off counts what the
    one-shot expansion of the whole conjunction would have counted —
    prefix disjuncts (empty ones included) times the disjuncts of
    ``rest``.

    ``rest_boxes`` and ``meets`` count the work of every ``decide`` so
    far: the non-empty boxes of ``rest`` folded, and the (prefix box,
    rest box) pairs met.
    """

    def __init__(self, prefix: Expr = TRUE) -> None:
        disjuncts = _dnf(_to_nnf(prefix))
        self._width = None if disjuncts is None else len(disjuncts)
        self._boxes: list[_Box] = []
        for atoms in disjuncts or ():
            box = _folded(atoms)
            if not box.impossible:
                box.finalize()
            if not box.impossible:
                self._boxes.append(box)
        self.rest_boxes = 0
        self.meets = 0

    @property
    def prefix_boxes(self) -> int:
        return len(self._boxes)

    def decide(self, rest: Expr) -> IntervalOutcome:
        """Try to decide ``prefix ∧ rest`` by interval reasoning alone."""
        if self._width is None:
            return IntervalOutcome.UNKNOWN
        disjuncts = _dnf(_to_nnf(rest))
        if disjuncts is None or self._width * len(disjuncts) > _DNF_LIMIT:
            return IntervalOutcome.UNKNOWN

        boxes = [box for box in map(_folded, disjuncts) if not box.impossible]
        self.rest_boxes += len(boxes)
        any_unknown = False
        for prefix_box in self._boxes:
            for box in boxes:
                self.meets += 1
                impossible, residual = _meet(prefix_box, box)
                if impossible:
                    continue
                if not residual:
                    return IntervalOutcome.SAT
                any_unknown = True
        return IntervalOutcome.UNKNOWN if any_unknown else IntervalOutcome.UNSAT


def interval_presolve(formula: Expr) -> IntervalOutcome:
    """Try to decide satisfiability of one (simplified) formula."""
    return IntervalPrefix().decide(formula)
