"""The end-to-end run: one analyst session per workload, tracing off.

A session is what the analyst of the README does with one database and
history, in rounds: a served cycle — new questions through the service
(cache misses), an append that must keep the cached answers, the same
questions again (cache hits), an append that must drop them — and then
never-seen what-ifs through the library (``Mahif.answer``) for as long as
the cycle took.  Closed loop, one client: the next request is sent only
when the previous one has been answered.  The server runs in this
interpreter, so a second client thread would add contention for the
interpreter lock, not load.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from repro.core import HistoricalWhatIfQuery, Mahif, MahifConfig, Method
from repro.relational.history import History
from repro.service import (
    ServiceClient,
    WhatIfServer,
    WhatIfService,
    modifications_from_spec,
    result_payload,
)

from .inputs import (
    LANE_LIBRARY,
    LANE_SERVED,
    LANE_WARMUP,
    Inputs,
    WhatIfStream,
    spec_of,
)

STORE_NAME = "bench"
CHECKPOINT_INTERVAL = 32
#: New what-ifs per served cycle, and how often each is then repeated:
#: a hit is a few milliseconds, so repeats are cheap samples.
CYCLE_WHATIFS = 2
HIT_ROUNDS = 4
#: Set-up is repeated and its median reported: one set-up is a single
#: sample of something a later change may legitimately move work into,
#: and of five a burst on the machine has to spoil three.
SETUP_REPEATS = 5
WARMUP_WHATIFS = 2
#: The stored history is registered afresh after this many cycles, so
#: that it stays within 2 x EPOCH_CYCLES statements of its generated
#: length: every appended statement on the what-if relation costs each
#: later miss one more solver call (+40% over a run of ``slice_bound``),
#: and a workload that drifts has no calmest stretch but its first.
EPOCH_CYCLES = 8
#: A metric is the median of the calmest of this many stretches of the
#: run (see ``calmest``).
STRETCHES = 5
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def scaled(count: int, scale: float, floor: int = 1) -> int:
    """Repeat counts shrink with ``--scale``: a tiny run (the smoke
    test's) exercises every path once instead of measuring."""
    return max(floor, int(count * min(1.0, scale)))


def timed(function, *args, **kwargs) -> tuple[float, object]:
    """(seconds, value) of one call."""
    start = time.perf_counter()
    value = function(*args, **kwargs)
    return time.perf_counter() - start, value


def summary(seconds: list[float]) -> dict:
    """Sample count, median, quartiles and p90 of a timing, in ms."""
    ms = sorted(s * 1000.0 for s in seconds)
    q1, p50, q3 = (
        statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
    )
    return {
        "n": len(ms), "p50": p50, "q1": q1, "q3": q3,
        "p90": ms[min(len(ms) - 1, int(0.9 * len(ms)))],
    }


def calmest(seconds: list[float], statistic=statistics.median) -> float:
    """``statistic`` over the stretch of the run where it is lowest.

    The samples, in time order, are cut into ``STRETCHES`` equal
    stretches.  The sandbox shares its two cores: neighbours slow it by
    20-40% for 2-20 s at a time, several times in ten minutes, and a
    statistic over the whole run is then moved by whether a burst fell
    into it (quartile distance over ten runs: 3-6% in a calm quarter of
    an hour, 20-35% in a busy one).  A change to the program moves every
    stretch; a burst shorter than four fifths of the run leaves one
    stretch alone.
    """
    count = min(STRETCHES, len(seconds))
    bounds = [len(seconds) * i // count for i in range(count + 1)]
    return min(
        statistic(seconds[low:high]) for low, high in zip(bounds, bounds[1:])
    )


class Program:
    """The system under test, set up for one workload: a long-lived
    engine, and the ``mahif serve`` defaults behind an in-process HTTP
    server with its clients."""

    def __init__(self, inputs: Inputs, seed: int) -> None:
        self.inputs = inputs
        self.engine = Mahif(MahifConfig(verify_plans=False))
        RESULTS_DIR.mkdir(exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="store-", dir=RESULTS_DIR)
        self.service = WhatIfService(
            self.root,
            default_backend="compiled",
            checkpoint_interval=CHECKPOINT_INTERVAL,
            default_shards="auto",
            sync=True,
        )
        self.server = WhatIfServer(self.service, port=0).start_background()
        self.client = ServiceClient(self.server.url)
        self.histories = 0
        self.start_history()
        self._warm_up(WhatIfStream(inputs, seed, LANE_WARMUP))

    def start_history(self) -> None:
        """Store the generated history under a fresh name and serve that
        one from now on (empty result cache, nothing appended)."""
        self.histories += 1
        self.name = f"{STORE_NAME}-{self.histories}"
        self.service.register(
            self.name, self.inputs.database, self.inputs.history
        )
        #: Statements appended to the stored history so far: the oracle
        #: needs the history an answer was computed over.
        self.appended: list = []

    def _warm_up(self, stream: WhatIfStream) -> None:
        """Lazy scipy/numpy imports, first plan compilations and one
        pass over every request type stay out of the timed sections;
        the closing append empties the result cache again."""
        for _ in range(WARMUP_WHATIFS):
            self.engine.answer(self.query(stream.next()), Method.R_PS_DS)
        spec = spec_of(stream.next())
        for _ in ("miss", "hit"):
            self.client.whatif(self.name, spec)
        self.append(self.inputs.data_update(0))

    def query(self, modifications) -> HistoricalWhatIfQuery:
        return HistoricalWhatIfQuery(
            self.inputs.history, self.inputs.database, modifications
        )

    def append(self, statement) -> tuple[float, dict]:
        """(round trip, response) of one single-statement append."""
        elapsed, response = timed(self.client.append, self.name, [statement])
        self.appended.append(statement)
        return elapsed, response

    def whatifs(self, specs: list[dict]) -> list[tuple[float, dict]]:
        """(round trip, response) of each spec, sent one after another."""
        return [timed(self.client.whatif, self.name, spec) for spec in specs]

    def close(self) -> None:
        self.server.shutdown()
        shutil.rmtree(self.root, ignore_errors=True)


def set_up(name: str, seed: int, scale: float) -> tuple[float, Program]:
    """Everything before the first timed operation, and how long it took:
    dataset and history generation, engine, store registration, server
    start and the warm-up operations."""
    return timed(lambda: Program(Inputs(name, scale), seed))


class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)


def library_whatif(program: Program, stream: WhatIfStream):
    """One cold what-if through the long-lived engine; returns
    (seconds, query, result)."""
    query = program.query(stream.next())
    elapsed, result = timed(program.engine.answer, query, Method.R_PS_DS)
    return elapsed, query, result


def served_cycle(
    program: Program, stream: WhatIfStream, index: int, tally: Tally
) -> dict:
    """One served cycle; every response's ``cached`` flag and every
    append's invalidation counts are checked against what the phase
    predicts.  Returns the cycle's timings, the append responses' cache
    counts and, for the oracle, its first miss with the history it was
    answered over."""
    inputs = program.inputs
    specs = [spec_of(stream.next()) for _ in range(CYCLE_WHATIFS)]
    history = History(inputs.history.statements + tuple(program.appended))
    misses = program.whatifs(specs)
    retained_s, retained = program.append(inputs.side_update(index))
    hits = program.whatifs(specs * HIT_ROUNDS)
    dropped_s, dropped = program.append(inputs.data_update(index + 1))

    for _, miss in misses:
        tally.check(miss["cached"] is False, "a new what-if was cached")
    for (_, miss), (_, hit) in zip(misses * HIT_ROUNDS, hits):
        tally.check(
            hit["cached"] is True and hit["delta"] == miss["delta"],
            "a repeated what-if missed the cache or changed",
        )
    tally.check(
        (retained["cache_dropped"], retained["cache_retained"])
        == (0, CYCLE_WHATIFS),
        f"append on side: {retained}",
    )
    tally.check(
        (dropped["cache_dropped"], dropped["cache_retained"])
        == (CYCLE_WHATIFS, 0),
        f"append on {inputs.relation}: {dropped}",
    )
    return {
        "miss": [s for s, _ in misses],
        "hit": [s for s, _ in hits],
        # Kept apart: an append on the 1 200-row side relation and one on
        # the what-if relation differ several-fold, and the median of the
        # two mixed would sit between the modes.
        "append_side": [retained_s],
        "append": [dropped_s],
        "retained": retained["cache_retained"],
        "dropped": dropped["cache_dropped"],
        "first_miss": (specs[0], history, misses[0][1]["delta"]),
    }


def oracle_check(program: Program, library, served, tally: Tally) -> None:
    """Re-answer one library and one served operation by a different
    method (naive replay) on a different backend (the interpreter) and
    compare deltas.  One each: a naive answer on the interpreter costs
    1-2.5 s, and every run checks another seed's operations."""
    inputs = program.inputs
    oracle = Mahif(MahifConfig(backend="interpreted", verify_plans=False))
    query, delta = library
    expected = oracle.answer(query, Method.NAIVE).delta
    tally.check(delta == expected, "library delta differs from naive")

    spec, history, delta = served
    query = HistoricalWhatIfQuery(
        history, inputs.database, modifications_from_spec(spec)
    )
    expected = result_payload(oracle.answer(query, Method.NAIVE))
    tally.check(delta == expected["delta"], "served delta differs from naive")


def run(name: str, seed: int, seconds: float, scale: float) -> dict:
    """One end-to-end run; returns metrics, tally and timing summaries."""
    setups = []
    program = None
    for _ in range(scaled(SETUP_REPEATS, scale)):
        if program is not None:
            program.close()
        elapsed, program = set_up(name, seed, scale)
        setups.append(elapsed)
    tally = Tally()
    timings = {
        kind: [] for kind in ("whatif", "miss", "hit", "append", "append_side")
    }
    library_stream = WhatIfStream(program.inputs, seed, LANE_LIBRARY)
    served_stream = WhatIfStream(program.inputs, seed, LANE_SERVED)
    library_s = served_s = 0.0
    cycles = 0
    try:
        gc.collect()
        gc.freeze()
        begin = time.perf_counter()
        while cycles == 0 or time.perf_counter() - begin < seconds:
            if cycles and cycles % EPOCH_CYCLES == 0:
                program.start_history()
            elapsed, cycle = timed(
                served_cycle, program, served_stream, cycles, tally
            )
            served_s += elapsed
            for kind in ("miss", "hit", "append", "append_side"):
                timings[kind] += cycle[kind]
            # The library gets as long as the service took, so the two
            # halves of the session see the same stretch of the run.
            while library_s < served_s:
                elapsed, query, result = library_whatif(
                    program, library_stream
                )
                library_s += elapsed
                timings["whatif"].append(elapsed)
                tally.attempted += 1
            if cycles == 0:
                kept = (query, result.delta), cycle["first_miss"]
            cycles += 1
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        oracle_check(program, *kept, tally)
    finally:
        program.close()
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "whatif_ms_p50": 1000.0 * calmest(timings["whatif"]),
            # Mean-based, so it carries the tail: what-ifs completed per
            # second of library time, on the stretch where that is highest.
            "whatif_per_s": 1.0 / calmest(timings["whatif"], statistics.mean),
            "served_ms_p50": 1000.0 * calmest(timings["miss"]),
            "hit_ms_p50": 1000.0 * calmest(timings["hit"]),
            "append_ms_p50": 1000.0 * calmest(timings["append"]),
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": tally.attempted,
        "failures": tally.failures,
        "summaries": {kind: summary(v) for kind, v in timings.items()},
        "cycles": cycles,
    }
