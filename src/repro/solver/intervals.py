"""Interval boxes: the presolver and the exact case split.

The dependency checks of Section 9 mostly produce conjunctions of range
comparisons over a handful of variables (window-overlap questions).  The
presolver decides most of them by interval reasoning:

* normalize the formula to DNF (with a size cutoff — blowup aborts),
* for each disjunct, intersect per-variable intervals implied by its
  atomic comparisons,
* a disjunct with a non-empty box *and no residual non-interval atoms* is
  a witness (SAT); if every disjunct's box is empty the formula is UNSAT;
  anything else is inconclusive and falls through to the case split.

Only comparisons of the shape ``var op constant`` / ``constant op var``
(over numbers or strings — strings only for ``=``/``!=``) participate;
any other atom makes its disjunct inconclusive-for-SAT but can still be
proven UNSAT by the box alone.  Bounds are the formula's own constants.

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

:func:`case_split` decides what the presolver leaves open, exactly, by
splitting on conditions instead of expanding the formula (the approach
of Koch & Olteanu's conditioning, PAPERS.md).  Defining equalities
``x = if θ then e else y`` are inlined once their conditional folds
away; atoms are normalised through affine terms to ``var op constant``
with :class:`fractions.Fraction` arithmetic, and the split branches on
one atom at a time, folding it or its negation into the branch's box.
An empty box closes its branch; a branch whose formula folds to true
is SAT only with a point of its box that satisfies the original
formula.  UNSAT means every branch closed.  A formula with an atom that
does not normalise (two variables, a product of variables, NULL, a
string order) may end UNKNOWN, which slicing treats as "keep".

Nothing here simplifies its input: callers hand in simplified formulas
(:class:`repro.solver.session.SolverSession` is the one place that calls
``simplify``).  Unsimplified input is still decided soundly, only less
often — a foldable ``1 <= 2`` atom is a residual.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from ..relational.expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    EvaluationError,
    Expr,
    FALSE,
    If,
    Logic,
    Not,
    TRUE,
    Var,
    _simplify_node,
    and_,
    children_of,
    conjuncts_of,
    eq,
    evaluate,
    transform,
    walk,
)

__all__ = [
    "IntervalOutcome", "IntervalPrefix", "case_split", "interval_presolve",
]

#: Abort DNF expansion beyond this many disjuncts.
_DNF_LIMIT = 256

#: A numeric bound: the formula's own int / float, or an exact
#: :class:`Fraction` the case split computed.
_Bound = float | Fraction

#: The comparison that holds exactly when the given one does not.
_NEGATED = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
#: The comparison with its operands swapped.
_MIRRORED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


class IntervalOutcome(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class _Box:
    """Per-variable closed/open interval intersection plus string facts."""

    lower: dict[str, _Bound]
    lower_strict: dict[str, bool]
    upper: dict[str, _Bound]
    upper_strict: dict[str, bool]
    string_eq: dict[str, str]
    string_neq: dict[str, set[str]]
    numeric_neq: dict[str, set[_Bound]]
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
            self.residual = True  # mixed-type facts: let the split decide

    def add_lower(self, name: str, bound: _Bound, strict: bool) -> None:
        current = self.lower.get(name, -math.inf)
        if bound > current or (
            bound == current and strict and not self.lower_strict.get(name, False)
        ):
            self.lower[name] = bound
            self.lower_strict[name] = strict
        self._check(name)

    def add_upper(self, name: str, bound: _Bound, strict: bool) -> None:
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
        return Cmp(_NEGATED[expr.op], expr.left, expr.right)
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
        name, value, op = right_name, left_const, _MIRRORED[atom.op]
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
    # mixed-type facts over the union of names: let the split decide
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


# -- the exact case split ---------------------------------------------------

_Fact = tuple[str, str, Any]

#: Search nodes one case split visits before it answers UNKNOWN: the
#: split is exponential in the worst case, and UNKNOWN keeps the
#: statement.  The generator and greedy workloads need at most 56.
_SEARCH_LIMIT = 2048


def _names(expr: Expr) -> set[str]:
    return {node.name for node in walk(expr) if isinstance(node, (Attr, Var))}


def _never_null(expr: Expr) -> bool:
    """No NULL constant and no division that could be by zero."""
    for node in walk(expr):
        if isinstance(node, Const) and node.value is None:
            return False
        if isinstance(node, Arith) and node.op == "/":
            if not (isinstance(node.right, Const) and node.right.value):
                return False
    return True


def _affine(
    expr: Expr, defined: dict[str, Expr]
) -> tuple[dict[str, Fraction], Fraction] | None:
    """``expr`` as ``Σ k·name + c`` over free variables, exactly; None
    when it is anything else (a defined name, a conditional, a product of
    variables, a string, NULL)."""
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return {}, Fraction(value)
    if isinstance(expr, (Attr, Var)):
        if expr.name in defined:
            return None
        return {expr.name: Fraction(1)}, Fraction(0)
    if not isinstance(expr, Arith):
        return None
    left, right = _affine(expr.left, defined), _affine(expr.right, defined)
    if left is None or right is None:
        return None
    if expr.op in ("+", "-"):
        sign = 1 if expr.op == "+" else -1
        terms = dict(left[0])
        for name, k in right[0].items():
            terms[name] = terms.get(name, Fraction(0)) + sign * k
        return terms, left[1] + sign * right[1]
    if expr.op == "*" and not left[0]:
        left, right = right, left
    if right[0] or (expr.op == "/" and not right[1]):
        return None
    factor = right[1] if expr.op == "*" else 1 / right[1]
    return {n: k * factor for n, k in left[0].items()}, left[1] * factor


def _fact(atom: Cmp, defined: dict[str, Expr]) -> _Fact | bool | None:
    """``atom`` as ``(name, op, constant)`` over a free variable, its
    truth value when no variable is left, or None when it is neither."""
    for ref, const, op in (
        (atom.left, atom.right, atom.op),
        (atom.right, atom.left, _MIRRORED[atom.op]),
    ):
        if isinstance(const, Const) and isinstance(const.value, str):
            if (
                isinstance(ref, (Attr, Var))
                and ref.name not in defined
                and op in ("=", "!=")
            ):
                return ref.name, op, const.value
            return None
    form = _affine(Arith("-", atom.left, atom.right), defined)
    if form is None:
        return None
    terms = {name: k for name, k in form[0].items() if k}
    if not terms:
        return bool(evaluate(Cmp(atom.op, Const(form[1]), Const(0))))
    if len(terms) > 1:
        return None
    ((name, k),) = terms.items()
    op, bound = atom.op if k > 0 else _MIRRORED[atom.op], -form[1] / k
    # an int or float that holds the bound exactly keeps comparisons cheap
    plain = int(bound) if bound.denominator == 1 else float(bound)
    return name, op, plain if plain == bound else bound


def _rewrite(expr: Expr, replace: Callable[[Expr], Expr | None]) -> Expr:
    """``simplify`` of ``expr`` with the nodes ``replace`` maps replaced,
    in one pass (operands are simplified, replacements too)."""
    return transform(expr, lambda node: replace(node) or _simplify_node(node))


def _replacing(mapping: dict[str, Expr]) -> Callable[[Expr], Expr | None]:
    """The ``replace`` of :func:`_rewrite` that substitutes names."""
    return lambda node: (
        mapping.get(node.name) if isinstance(node, (Attr, Var)) else None
    )


def _inline(
    formula: Expr, defined: dict[str, Expr]
) -> tuple[Expr, dict[str, Expr]]:
    """Substitute every definition whose right side holds no conditional
    any more, until none does."""
    while True:
        ready = {
            name: value
            for name, value in defined.items()
            if not any(isinstance(node, If) for node in walk(value))
        }
        if not ready:
            return formula, defined
        settled = ready
        for _ in ready:  # a chain of ready definitions settles a link a round
            previous = settled
            replace = _replacing(settled)
            settled = {n: _rewrite(e, replace) for n, e in settled.items()}
            if all(settled[n] is e for n, e in previous.items()):
                break
        # a definition still naming a ready one is on a cycle: a constraint
        cyclic = [
            n for n, e in settled.items() if not _names(e).isdisjoint(ready)
        ]
        replace = _replacing({n: settled[n] for n in settled.keys() - cyclic})
        formula = _rewrite(
            and_(formula, *(eq(Var(n), ready[n]) for n in cyclic)), replace
        )
        defined = {
            n: _rewrite(e, replace)
            for n, e in defined.items()
            if n not in ready
        }


def _value_in(box: _Box, name: str) -> Any:
    """A value meeting every fact ``box`` holds on ``name``: an integer
    where the interval has one clear of the exclusions, else an exact
    fraction between its bounds."""
    if name in box.string_eq:
        return box.string_eq[name]
    if name in box.string_neq and name not in box.numeric_names():
        return max(box.string_neq[name]) + "~"
    low = box.lower.get(name, -math.inf)
    high = box.upper.get(name, math.inf)
    excluded = box.numeric_neq.get(name, set())
    count = len(excluded) + 2  # one more than can be excluded or strict
    start = math.floor(low) if low > -math.inf else (
        math.ceil(high) - count if high < math.inf else 0
    )
    candidates: list[_Bound] = list(range(start, start + count + 1))
    if -math.inf < low and high < math.inf:
        step = (Fraction(high) - Fraction(low)) / count
        candidates += [Fraction(low) + i * step for i in range(count)]
    for value in candidates:
        if (
            value not in excluded
            and (
                low < value
                or (low == value and not box.lower_strict[name])
            )
            and (
                value < high
                or (value == high and not box.upper_strict[name])
            )
        ):
            return value
    return None


def _witness(
    formula: Expr, definitions: dict[str, Expr], box: _Box
) -> dict[str, Any] | None:
    """A point of ``box`` for the free names, the defined names computed
    from it, if ``formula`` evaluates to true there."""
    witness = {
        name: _value_in(box, name)
        for name in _names(formula) - definitions.keys()
    }
    pending = dict(definitions)
    try:
        while pending:
            ready = [
                n for n, e in pending.items() if _names(e) <= witness.keys()
            ]
            if not ready:
                return None
            for name in ready:
                witness[name] = evaluate(pending.pop(name), witness)
        return witness if evaluate(formula, witness) is True else None
    except (EvaluationError, TypeError):
        return None


def _with(box: _Box, facts: list[_Fact]) -> _Box:
    """A copy of ``box`` with ``facts`` folded in, finalized unless empty."""
    box = copy.deepcopy(box)
    for name, op, value in facts:
        _apply_atom(box, Cmp(op, Var(name), Const(value)))
        if box.impossible:
            return box
    box.finalize()
    return box


class _Split:
    """One :func:`case_split`: the formula's definitions, its atoms'
    normal forms and one-atom boxes, and the search budget left."""

    def __init__(self, formula: Expr) -> None:
        self.definitions: dict[str, Expr] = {}
        self.constraints: list[Expr] = []
        for conjunct in conjuncts_of(formula):
            if (
                isinstance(conjunct, Cmp)
                and conjunct.op == "="
                and isinstance(conjunct.left, (Attr, Var))
                and conjunct.left.name not in self.definitions
                and conjunct.left.name not in _names(conjunct.right)
                and _never_null(conjunct.right)
            ):
                self.definitions[conjunct.left.name] = conjunct.right
            else:
                self.constraints.append(conjunct)
        #: id(atom) -> (atom, normal form); holding the atom keeps its id.
        self._facts: dict[int, tuple[Cmp, _Fact | bool | None]] = {}
        #: fact -> the one-atom boxes of the fact and of its negation.
        self._sides: dict[_Fact, tuple[_Box, _Box]] = {}
        self.budget = _SEARCH_LIMIT

    def fact(self, atom: Cmp, defined: dict[str, Expr]) -> _Fact | bool | None:
        """:func:`_fact` of ``atom``, read once per atom object."""
        entry = self._facts.get(id(atom))
        if entry is None:
            entry = self._facts[id(atom)] = (atom, _fact(atom, defined))
        return entry[1]

    def decided(self, box: _Box, fact: _Fact) -> bool | None:
        """The truth value ``box`` forces on ``fact``, if it forces one."""
        sides = self._sides.get(fact)
        if sides is None:
            name, op, value = fact
            sides = self._sides[fact] = (
                _folded([Cmp(op, Var(name), Const(value))]),
                _folded([Cmp(_NEGATED[op], Var(name), Const(value))]),
            )
        for forced, side in zip((False, True), sides):
            if side.impossible or _meet(box, side)[0]:
                return forced
        return None

    def next_atom(
        self, formula: Expr, defined: dict[str, Expr]
    ) -> _Fact | None:
        """The leftmost comparison that reads as a fact, looking through
        conditionals and into the definitions of the names it meets."""
        seen: set[str] = set()
        stack = [formula]
        while stack:
            node = stack.pop()
            if isinstance(node, Cmp):
                fact = self.fact(node, defined)
                if isinstance(fact, tuple):
                    return fact
            elif isinstance(node, (Attr, Var)):
                if node.name in defined and node.name not in seen:
                    seen.add(node.name)
                    stack.append(defined[node.name])
                continue
            stack.extend(reversed(children_of(node)))
        return None

    def propagate(
        self, box: _Box, formula: Expr, defined: dict[str, Expr]
    ) -> tuple[_Box, Expr, dict[str, Expr]]:
        """Inline what is resolved, fold the top-level atoms into the box
        and replace every atom the box decides, until nothing changes.
        ``formula`` and ``defined`` come inlined."""
        while True:
            units = [
                fact
                for conjunct in conjuncts_of(formula)
                if isinstance(conjunct, Cmp)
                and isinstance(fact := self.fact(conjunct, defined), tuple)
            ]
            if units:
                box = _with(box, units)
                if box.impossible:
                    return box, FALSE, defined

            def replace(node: Expr) -> Expr | None:
                if not isinstance(node, Cmp):
                    return None
                fact = self.fact(node, defined)
                if isinstance(fact, tuple):
                    fact = self.decided(box, fact)
                return None if fact is None else Const(fact)

            before = formula, defined
            formula, defined = _inline(
                _rewrite(formula, replace),
                {n: _rewrite(e, replace) for n, e in defined.items()},
            )
            if formula is before[0] and all(
                before[1].get(n) is e for n, e in defined.items()
            ):
                return box, formula, defined

    def parts(self, formula: Expr, defined: dict[str, Expr]) -> list[Expr]:
        """The conjunction split where no variable links its conjuncts
        (looking into the definitions they use): each part is decided on
        its own."""
        groups: list[tuple[set[str], list[Expr]]] = []
        for conjunct in conjuncts_of(formula):
            names, members = _names(conjunct), [conjunct]
            pending = list(names & defined.keys())
            while pending:
                more = _names(defined[pending.pop()]) - names
                names |= more
                pending += more & defined.keys()
            for group in [g for g in groups if not g[0].isdisjoint(names)]:
                groups.remove(group)
                names |= group[0]
                members = group[1] + members
            groups.append((names, members))
        return [and_(*members) for _, members in groups]

    def search(
        self, box: _Box, formula: Expr, defined: dict[str, Expr]
    ) -> tuple[IntervalOutcome, _Box]:
        """The outcome for ``formula`` within ``box``, with the box of the
        branch that made it true when SAT."""
        self.budget -= 1
        if self.budget < 0:
            return IntervalOutcome.UNKNOWN, box
        box, formula, defined = self.propagate(box, formula, defined)
        if formula == FALSE:
            return IntervalOutcome.UNSAT, box
        if formula == TRUE:
            return IntervalOutcome.SAT, box
        parts = self.parts(formula, defined)
        if len(parts) > 1:
            # independent parts: one UNSAT part decides, and a part's
            # outcome does not depend on the box another one ends in
            outcome = IntervalOutcome.SAT
            for part in parts:
                result, leaf = self.search(box, part, defined)
                if result is IntervalOutcome.UNSAT:
                    return result, leaf
                if result is IntervalOutcome.SAT:
                    box = leaf
                else:
                    outcome = result
            return outcome, box
        found = self.next_atom(formula, defined)
        if found is None:
            return IntervalOutcome.UNKNOWN, box
        name, op, value = found
        outcome = IntervalOutcome.UNSAT
        for side in (op, _NEGATED[op]):
            # the branch's box decides the atom, so propagation folds it
            branch = _with(box, [(name, side, value)])
            if branch.impossible:
                continue
            result, leaf = self.search(branch, formula, defined)
            if result is IntervalOutcome.SAT:
                return result, leaf
            if result is IntervalOutcome.UNKNOWN:
                outcome = result
        return outcome, box


def case_split(formula: Expr) -> tuple[IntervalOutcome, dict[str, Any] | None]:
    """Decide a simplified formula exactly, with a witness when SAT.

    Top-level conjuncts ``x = e`` (``x`` not in ``e``, ``e`` never NULL)
    are definitions; the rest is split on, one atom at a time.  The
    witness maps every variable of ``formula`` to a value under which it
    evaluates to true.
    """
    split = _Split(formula)
    outcome, box = split.search(
        _Box.empty(), *_inline(and_(*split.constraints), split.definitions)
    )
    witness = None
    if outcome is IntervalOutcome.SAT:
        witness = _witness(formula, split.definitions, box)
        if witness is None:
            outcome = IntervalOutcome.UNKNOWN
    return outcome, witness
