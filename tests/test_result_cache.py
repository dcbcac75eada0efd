"""``ResultCache`` against a brute-force model.

The cache keeps answers across appends; its contract (the class
docstring) is small enough to restate as a model that remembers
*everything*: a plain list of every ``put`` with the history length it
was made at, and a plain list of every append with the relations it
accessed.  The model answers a ``get`` by scanning both lists — "put at
the then-current length, and no statement appended since accessed one
of its delta relations" — and never drops or re-keys anything, so it
shares no logic with the cache's incremental bookkeeping.

Single-threaded and engine-free: the harness plays the engine by fixing,
per fingerprint, the relations its answer's delta touches until an
append accesses one of them (only then may the answer, and with it the
footprint, change).  An entry holds its answer twice — the payload dict
and the bytes it was encoded to once — so the run also checks that every
live entry's bytes still decode to its payload, and that the cache lets
go of a dropped entry's bytes (they are the megabyte).  Seeded through
``MAHIF_FUZZ_SEED``; the number of sequences scales with
``MAHIF_FUZZ_SCALE`` like the other fuzz suites.
"""

from __future__ import annotations

import gc
import json
import random
import types

import pytest

from fuzz_differential import env_number
from repro.service.cache import CachedAnswer, ResultCache

_SCALE = env_number("MAHIF_FUZZ_SCALE", 1.0)
_SEED = env_number("MAHIF_FUZZ_SEED", 20260927)

FINGERPRINTS = ("q0", "q1", "q2", "q3", "q4")
RELATIONS = ("R", "S", "T", "U")


class Model:
    """Every put and every append ever made, scanned on demand."""

    def __init__(self, length: int) -> None:
        self.length = length
        #: (fingerprint, payload, relations, length)
        self.puts: list[tuple] = []
        #: (length after the append, relations it accessed)
        self.appends: list[tuple[int, frozenset]] = []

    def put(self, fingerprint, payload, relations, at) -> None:
        if at == self.length:  # anything else was computed on another history
            self.puts.append((fingerprint, payload, frozenset(relations), at))

    def advance(self, new_length: int, accessed) -> None:
        self.length = new_length
        self.appends.append((new_length, frozenset(accessed)))

    def _alive(self, put) -> bool:
        *_, relations, at = put
        return not any(
            length > at and accessed & relations
            for length, accessed in self.appends
        )

    def get(self, fingerprint):
        payloads = [
            p[1] for p in self.puts if p[0] == fingerprint and self._alive(p)
        ]
        return payloads[-1] if payloads else None

    def entries(self) -> set:
        return {p[0] for p in self.puts if self._alive(p)}


STEPS = 200


def reachable_ids(root) -> set[int]:
    """``id`` of every object ``root`` keeps alive (its classes' and
    modules' own references aside)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return seen


def some_relations(rng: random.Random, at_least: int) -> frozenset:
    return frozenset(rng.sample(RELATIONS, rng.randrange(at_least, 3)))


def run(seed: int) -> dict:
    """Drive cache and model with one random sequence, comparing every
    observable; returns how often each interesting case occurred."""
    rng = random.Random(seed)
    length = rng.randrange(0, 5)
    cache, model = ResultCache(length), Model(length)
    # An empty delta stays empty whatever is appended (q0); any other
    # footprint is redrawn non-empty so the run never settles there.
    footprint = {fp: some_relations(rng, 1) for fp in FINGERPRINTS}
    footprint["q0"] = frozenset()
    seen = {"hits": 0, "stale": 0, "dropped": 0, "retained": 0}
    #: The answer last accepted under each key; kept alive here, so a
    #: dropped body's ``id`` stays its own.
    accepted: dict[tuple, CachedAnswer] = {}
    for step in range(STEPS):
        action = rng.random()
        if action < 0.45:
            fingerprint = rng.choice(FINGERPRINTS)
            # One put in five lost a race with an append.
            at = length if rng.random() < 0.8 else length - rng.randrange(1, 3)
            answer = answer_of(step)
            taken = cache.put(fingerprint, answer, footprint[fingerprint], at)
            assert taken == (at == length)
            seen["stale"] += not taken
            if taken:
                accepted[fingerprint] = answer
            model.put(fingerprint, answer, footprint[fingerprint], at)
        elif action < 0.8:
            fingerprint = rng.choice(FINGERPRINTS)
            got = cache.get(fingerprint)
            assert got is model.get(fingerprint), (seed, step)
            seen["hits"] += got is not None
            if got is not None:
                assert json.loads(got.body) == got.payload
        else:
            accessed = some_relations(rng, 0)
            before = model.entries()
            length += rng.randrange(1, 3)
            model.advance(length, accessed)
            after = model.entries()
            assert cache.advance(length, accessed) == (
                len(before - after), len(after)
            ), (seed, step)
            seen["dropped"] += len(before - after)
            seen["retained"] += len(after)
            for fingerprint, relations in footprint.items():
                if relations & accessed:  # the answer may have changed
                    footprint[fingerprint] = some_relations(rng, 1)
            assert len(cache) == len(after)
            held = reachable_ids(cache)
            for key in before - after:
                assert id(accepted.pop(key).body) not in held, (seed, step)
            for key in after:
                assert id(accepted[key].body) in held, (seed, step)
                assert cache.get(key) is accepted[key], (seed, step)
    return seen


@pytest.mark.parametrize("trial", range(max(1, int(20 * _SCALE))))
def test_cache_agrees_with_the_model(trial):
    seen = run(_SEED + trial)
    # The sequence exercised what it is meant to: hits, refused puts,
    # and appends that drop some entries while retaining others.
    assert all(seen.values()), seen


def answer_of(value) -> CachedAnswer:
    payload = {"answer": value}
    return CachedAnswer(json.dumps(payload).encode("utf-8"), lambda: payload)


class TestContract:
    def test_advance_drops_overlapping_entries_and_only_those(self):
        cache = ResultCache(3)
        kept, gone = answer_of("kept"), answer_of("gone")
        cache.put("kept", kept, {"R"}, 3)
        cache.put("gone", gone, {"R", "S"}, 3)
        cache.put("empty-delta", answer_of(None), (), 3)
        assert cache.advance(4, {"S", "T"}) == (1, 2)
        assert cache.get("kept") is kept
        assert cache.get("gone") is None
        # Retained entries answer for the *new* length.
        assert cache.put("late", answer_of(None), (), 3) is False
        assert cache.put("fresh", answer_of(None), (), 4) is True

    def test_a_dropped_entry_leaves_nothing_behind(self):
        """Nothing keyed by the fingerprint outlives its entry: a later
        answer at the new length is the only one the key finds."""
        cache = ResultCache(0)
        cache.put("q", answer_of(1), {"R"}, 0)
        assert cache.advance(1, {"R"}) == (1, 0)
        assert cache.get("q") is None
        assert len(cache) == 0
        fresh = answer_of(2)
        assert cache.put("q", fresh, {"R"}, 1)
        assert cache.get("q") is fresh

    def test_a_refused_put_stores_nothing(self):
        cache = ResultCache(5)
        assert cache.put("q", answer_of(1), {"R"}, 4) is False
        assert cache.put("q", answer_of(1), {"R"}, 6) is False
        assert len(cache) == 0
        assert cache.get("q") is None

    def test_a_retained_entry_keeps_answering(self):
        cache = ResultCache(0)
        payload = answer_of(1)
        cache.put("q", payload, {"R"}, 0)
        assert cache.advance(1, {"S"}) == (0, 1)
        assert cache.advance(2, ()) == (0, 1)
        assert cache.get("q") is payload

    def test_a_later_put_replaces_the_entry(self):
        cache = ResultCache(2)
        first, second = answer_of(1), answer_of(2)
        cache.put("q", first, {"R"}, 2)
        cache.put("q", second, {"S"}, 2)
        assert len(cache) == 1
        assert cache.get("q") is second
        # The footprint is the replacing answer's, not the union.
        assert cache.advance(3, {"R"}) == (0, 1)
        assert cache.advance(4, {"S"}) == (1, 0)
