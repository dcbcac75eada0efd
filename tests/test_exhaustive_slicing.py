"""Bounded-exhaustive oracle for program slicing.

Every method, under both slicing algorithms, must return NAIVE's delta on
every query of a fixed, enumerated space — no randomness, so a failure
names its query and reruns identically.  NAIVE replays both histories
in full and slices nothing, so it shares no code with the slicers or the
solver they ask.

The grammar is 16 statements over ``R(k, A, B)`` holding ``(k, k, 0)``
for ``k < 6``: ``SET B = 1``, ``SET B = 2``, ``SET A = A + 2`` or
``DELETE``, each ``WHERE A <= t`` or ``WHERE A >= t`` with t ∈ {1, 3}.
The tier-1 subspace fixes the shape of the first and last statements and
enumerates the one between them:

* histories ``a1 WHERE A >= 3; s2; a3 WHERE A >= 1`` for every action
  ``a1``, ``a3`` and every grammar statement ``s2`` (256);
* per history two modification sets: the first statement replaced by the
  next action under its condition, alone and together with the last
  statement replaced by ``SET B = 1 WHERE A <= 3`` (512 queries).

That space holds a known way to a wrong delta, for a slicer that checks
statements between two modifications: the delete at position 2 hides
the tuples the two modifications disagree on.
"""

from __future__ import annotations

import itertools
from collections import Counter

from repro import (
    Database,
    HistoricalWhatIfQuery,
    History,
    Relation,
    Replace,
    Schema,
    parse_statement,
)
from repro.core import Mahif, MahifConfig, Method

SCHEMA = Schema.of("k", "A", "B")
ACTIONS = (
    "UPDATE R SET B = 1",
    "UPDATE R SET B = 2",
    "UPDATE R SET A = A + 2",
    "DELETE FROM R",
)
CONDITIONS = ("A <= 1", "A <= 3", "A >= 1", "A >= 3")
GRAMMAR = [
    f"{action} WHERE {condition}"
    for action in ACTIONS
    for condition in CONDITIONS
]
LAST_MODIFIED = "UPDATE R SET B = 1 WHERE A <= 3"
SLICED = (Method.R_PS, Method.R_PS_DS)


def subspace():
    """``(history, modifications)`` pairs of the tier-1 subspace, in a
    fixed order."""
    for first, middle, last in itertools.product(
        range(len(ACTIONS)), GRAMMAR, ACTIONS
    ):
        statements = [
            f"{ACTIONS[first]} WHERE A >= 3", middle, f"{last} WHERE A >= 1"
        ]
        history = tuple(map(parse_statement, statements))
        replaced = f"{ACTIONS[(first + 1) % len(ACTIONS)]} WHERE A >= 3"
        yield statements, history, (Replace(1, parse_statement(replaced)),)
        yield statements, history, (
            Replace(1, parse_statement(replaced)),
            Replace(3, parse_statement(LAST_MODIFIED)),
        )


def wrong_answers() -> tuple[int, int, Counter]:
    """Histories, queries, and the wrong answers per (method, slicer)."""
    database = Database(
        {"R": Relation.from_rows(SCHEMA, [(k, k, 0) for k in range(6)])}
    )
    engines = {
        algorithm: Mahif(
            MahifConfig(slicing_algorithm=algorithm, backend="interpreted")
        )
        for algorithm in ("dependency", "greedy")
    }
    histories, queries, wrong = set(), 0, Counter()
    for statements, history, modifications in subspace():
        histories.add(tuple(statements))
        queries += 1
        query = HistoricalWhatIfQuery(
            History(history), database, modifications
        )
        expected = engines["dependency"].answer(query, Method.NAIVE).delta
        for algorithm, engine in engines.items():
            for method in Method:
                if method is Method.NAIVE:
                    continue
                if algorithm == "greedy" and method not in SLICED:
                    continue  # no slicing, nothing greedy could change
                if engine.answer(query, method).delta != expected:
                    wrong[method.value, algorithm] += 1
    return len(histories), queries, wrong


def test_reproducer_is_in_the_subspace():
    reproducer = [
        "UPDATE R SET B = 2 WHERE A >= 3",
        "DELETE FROM R WHERE A <= 1",
        "UPDATE R SET A = A + 2 WHERE A >= 1",
    ]
    modified = {
        tuple(str(m.statement) for m in modifications)
        for statements, _, modifications in subspace()
        if statements == reproducer
    }
    assert (
        str(parse_statement("UPDATE R SET A = A + 2 WHERE A >= 3")),
        str(parse_statement(LAST_MODIFIED)),
    ) in modified


def test_every_method_and_slicer_matches_naive():
    histories, queries, wrong = wrong_answers()
    assert (histories, queries) == (256, 512)
    assert not wrong, (
        f"{sum(wrong.values())} wrong answers over {histories} histories, "
        f"{queries} queries: {dict(wrong)}"
    )
