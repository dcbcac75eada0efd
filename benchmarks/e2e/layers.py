"""The traced run: the answer pipeline replayed stage by stage.

Spans are recorded here, in the benchmark, around calls into each
layer's *public* functions; nothing under ``src/`` is instrumented.  A
span's name is the per-layer metric it feeds.  Each sampled operation is
first answered whole by ``Mahif.answer`` (untraced), then replayed in
pipeline order under one ``answer.staged_ms`` span, then probed by
diagnostic calls (other backends, the verifier, wire encoding) under a
second span that is not part of the staged total.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core import (
    DatabaseDelta,
    Mahif,
    MahifConfig,
    MahifResult,
    Method,
    RelationDelta,
)
from repro.core.data_slicing import compute_data_slicing
from repro.core.dependency import dependency_slice
from repro.core.insert_split import can_split, split_inserts
from repro.core.reenactment import reenactment_queries
from repro.obs.profile import profile_query
from repro.relational.algebra import evaluate_query, inject_selection
from repro.relational.exec.plan_compile import clear_plan_cache
from repro.relational.expressions import and_, substitute_attributes
from repro.relational.optimizer import optimize
from repro.relational.statements import InsertTuple
from repro.service import modifications_from_spec, result_payload
from repro.solver.sat import check_satisfiable
from repro.static_analysis import verify_reenactment_plans
from repro.store import HistoryStore
from repro.symbolic.compress import compress_relation
from repro.symbolic.symexec import run_history_single_tuple
from repro.symbolic.vctable import SymbolicTuple

from .inputs import LANE_TRACED, WhatIfStream, spec_of
from .session import (
    CHECKPOINT_INTERVAL,
    CYCLE_WHATIFS,
    HIT_ROUNDS,
    RESULTS_DIR,
    Program,
    Tally,
    library_whatif,
    scaled,
    served_cycle,
    summary,
    timed,
)

#: Operations per traced section (at ``--scale 1``; a scaled-down run
#: scales them down too, to no fewer than 2).  Fixed, so that counts
#: repeat exactly for a seed; small, because one staged operation with
#: its diagnostic calls costs five to eight plain answers.
STAGED_WHATIFS = 8
#: Of those, the first few also get the diagnostic calls: the
#: interpreter alone takes a second per plan pair on ``exec_bound``.
DIAGNOSED_WHATIFS = 3
METHOD_WHATIFS = 4
BATCH_WHATIFS = 8
PLANNER_WHATIFS = 4
SERVICE_WHATIFS = 4
TRACED_CYCLES = 3
PROBE_REPEATS = 20
#: Share of ``--seconds`` spent on untraced library what-ifs, for the
#: tail latency.
TAIL_SHARE = 0.25
DIAGNOSTIC_BACKENDS = ("vector", "sqlite", "interpreted")


class Tracer:
    """Spans kept in memory: name, start, end, parent, operation,
    workload.  Written out when the workload ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self.operation = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "operation": self.operation,
            "workload": self.workload,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def resampled(self, parent: dict, name: str, seconds: float) -> None:
        """A child whose time was measured apart from its parent — a
        second call with the same arguments, or the layer's own
        accounting.  Laid out inside the parent for reporting; never
        added to a total twice."""
        start = parent.setdefault("cursor", parent["start"])
        parent["cursor"] = start + seconds
        self.spans.append(
            {
                "id": len(self.spans), "name": name,
                "start": start, "end": start + seconds,
                "parent": parent["id"],
                "operation": self.operation, "workload": self.workload,
                "resampled": True,
            }
        )

    def median_ms(self, name: str) -> float:
        return 1000.0 * statistics.median(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        )

    def self_ms(self, name: str) -> float:
        """Median of the span's duration minus its children's."""
        values = []
        for span in self.spans:
            if span["name"] == name:
                children = sum(
                    c["end"] - c["start"]
                    for c in self.spans if c["parent"] == span["id"]
                )
                values.append(span["end"] - span["start"] - children)
        # Resampled children can, by timing noise, outlast their parent.
        return max(0.0, 1000.0 * statistics.median(values))

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (loadable in Perfetto): one complete
        event per span, one track per operation."""
        origin = min(s["start"] for s in self.spans)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": s["name"], "ph": "X", "cat": self.workload,
                    "pid": 1, "tid": s["operation"],
                    "ts": (s["start"] - origin) * 1e6,
                    "dur": (s["end"] - s["start"]) * 1e6,
                    "args": {
                        "parent": s["parent"],
                        "resampled": s.get("resampled", False),
                    },
                }
                for s in self.spans
            ],
        }


def staged_answer(tracer: Tracer, query, config: MahifConfig):
    """``Mahif.answer(query, R_PS_DS)`` as its pipeline stages, each under
    a span; returns the delta and what the diagnostics need."""
    slicing = config.program_slicing
    with tracer.span("answer.staged_ms"):
        with tracer.span("hwq.align_ms"):
            pair, prefix_length = query.aligned().trim_prefix()
        with tracer.span("history.time_travel_ms"):
            start_db = query.history.prefix(prefix_length).execute(
                query.database
            )
        schemas = {
            name: start_db.schema_of(name) for name in start_db.relations
        }
        affected = sorted(pair.target_relations_of_modifications())
        inserted = None
        with tracer.span("insert_split.ms"):
            if can_split(pair) and any(
                isinstance(s, InsertTuple)
                for s in pair.original.statements + pair.modified.statements
            ):
                split = split_inserts(pair, schemas)
                pair = split.without_inserts
                inserted = (split.inserted_original, split.inserted_modified)
        with tracer.span("dependency.slice_ms") as slice_span:
            sliced = dependency_slice(pair, start_db, schemas, slicing)
        unsliced, pair = pair, pair.subset(sliced.kept_positions)
        with tracer.span("reenactment.build_ms"):
            plans_h = reenactment_queries(pair.original, schemas)
            plans_m = reenactment_queries(pair.modified, schemas)
        with tracer.span("data_slicing.compute_ms"):
            conditions = compute_data_slicing(pair, schemas)
            plans_h = {
                name: inject_selection(op, dict(conditions.for_original))
                for name, op in plans_h.items()
            }
            plans_m = {
                name: inject_selection(op, dict(conditions.for_modified))
                for name, op in plans_m.items()
            }
        unoptimized = (plans_h, plans_m)
        with tracer.span("optimizer.ms"):
            plans_h = {
                name: optimize(op, config.optimizer)
                for name, op in plans_h.items()
            }
            plans_m = {
                name: optimize(op, config.optimizer)
                for name, op in plans_m.items()
            }
        with tracer.span("exec.compiled_ms"):
            results = {
                name: (
                    evaluate_query(plans_h[name], start_db, backend="compiled"),
                    evaluate_query(plans_m[name], start_db, backend="compiled"),
                )
                for name in affected
            }
        with tracer.span("delta.between_ms"):
            deltas = {}
            for name, (result_h, result_m) in results.items():
                if inserted is not None:
                    result_h = result_h.union(inserted[0][name])
                    result_m = result_m.union(inserted[1][name])
                deltas[name] = RelationDelta.between(result_h, result_m)
            delta = DatabaseDelta(deltas)

    # Where the slicing time went: the two symbolic stages are timed by
    # calling them again with the same arguments, the solver by the
    # layer's own accounting.
    compress_s = symexec_s = 0.0
    for name in affected:
        symbolic = SymbolicTuple.fresh(schemas[name], prefix=f"dep_{name}")
        compress_s += timed(
            compress_relation, start_db[name], symbolic, slicing.compression
        )[0]
        for side, prefix in ((unsliced.original, "dh"), (unsliced.modified, "dm")):
            symexec_s += timed(
                run_history_single_tuple,
                side, name, schemas[name], symbolic, prefix=f"{prefix}_{name}",
            )[0]
    tracer.resampled(slice_span, "symbolic.compress_ms", compress_s)
    tracer.resampled(slice_span, "symbolic.symexec_ms", symexec_s)
    tracer.resampled(slice_span, "solver.check_ms", sliced.solver_seconds)
    return delta, {
        "start_db": start_db, "schemas": schemas, "affected": affected,
        "plans": (plans_h, plans_m), "unoptimized": unoptimized,
        "sliced": sliced, "results": results,
    }


def diagnose(tracer: Tracer, delta, staged: dict, tally: Tally) -> dict:
    """Calls production does not make on this path: the verifier, the
    other three backends on the same plans, per-operator row counts and
    wire encoding.  Returns the operation's counts."""
    start_db, (plans_h, plans_m) = staged["start_db"], staged["plans"]
    rows_in = rows_out = 0
    with tracer.span("diagnostics"):
        with tracer.span("static_analysis.verify_ms"):
            verify_reenactment_plans(
                staged["schemas"], plans_h, plans_m,
                before_original=staged["unoptimized"][0],
                before_modified=staged["unoptimized"][1],
            )
        for backend in DIAGNOSTIC_BACKENDS:
            with tracer.span(f"exec.{backend}_ms"):
                for name in staged["affected"]:
                    for plan, expected in zip(
                        (plans_h[name], plans_m[name]),
                        staged["results"][name],
                    ):
                        got = evaluate_query(plan, start_db, backend=backend)
                        tally.check(
                            got == expected, f"{backend} disagrees with compiled"
                        )
        for name in staged["affected"]:
            for plan in (plans_h[name], plans_m[name]):
                _, profile = profile_query(plan, start_db, backend="compiled")
                rows_out += profile.rows
                rows_in += sum(leaf.rows for leaf in _leaves(profile))
        with tracer.span("wire.encode_ms"):
            encoded = json.dumps(
                result_payload(MahifResult(delta, Method.R_PS_DS))
            )
    sliced = staged["sliced"]
    return {
        "dependency.solver_calls": sliced.solver_calls,
        "dependency.kept_share": (
            len(sliced.kept_positions) / sliced.total_positions
        ),
        "exec.rows_in": rows_in,
        "exec.rows_out": rows_out,
        "delta.rows": len(delta),
        "wire.payload_bytes": len(encoded),
    }


def _leaves(profile):
    if not profile.children:
        yield profile
    for child in profile.children:
        yield from _leaves(child)


def _scaled(count: int, program: Program) -> int:
    return scaled(count, program.inputs.scale, floor=2)


def _median_ms(seconds) -> float:
    return 1000.0 * statistics.median(seconds)


def solver_probes(program: Program, query, tally: Tally) -> dict:
    """One satisfiability call each for a window that overlaps the data
    and one beyond it: the solver's per-call cost, free of the slicing
    loop's bookkeeping."""
    inputs = program.inputs
    relation = inputs.database[inputs.relation]
    symbolic = SymbolicTuple.fresh(relation.schema, prefix="probe")
    phi_d = compress_relation(
        relation, symbolic, program.engine.config.program_slicing.compression
    )
    beyond = float(inputs.sorted_values[-1]) + 1.0
    out = {}
    for name, condition, satisfiable in (
        ("solver.probe_sat_ms", query.modifications[0].statement.condition, True),
        ("solver.probe_unsat_ms", inputs.between(beyond, beyond + 1.0), False),
    ):
        formula = and_(
            phi_d, substitute_attributes(condition, dict(symbolic.values))
        )
        seconds = []
        for _ in range(PROBE_REPEATS):
            elapsed, result = timed(check_satisfiable, formula)
            seconds.append(elapsed)
        tally.check(result.is_sat == satisfiable, f"{name}: {result.status}")
        out[name] = _median_ms(seconds)
    return out


def method_comparison(program: Program, queries, tally: Tally) -> dict:
    """Every method on the same queries: five paths to one delta, so any
    method slower than the best is a finding and any delta that differs
    is a failure."""
    walls = {method: [] for method in Method}
    accounted = {method: [] for method in Method}
    for query in queries:
        deltas = []
        for method in Method:
            clear_plan_cache()
            wall, result = timed(program.engine.answer, query, method)
            walls[method].append(wall)
            accounted[method].append(result.total_seconds / wall)
            deltas.append(result.delta)
        tally.check(all(d == deltas[0] for d in deltas), "methods disagree")
    medians = {m: _median_ms(w) for m, w in walls.items()}
    names = {m: m.value.replace("+", "_") for m in Method}
    out = {f"method.{names[m]}_ms_p50": medians[m] for m in Method}
    out["method.regret"] = medians[Method.R_PS_DS] / min(medians.values())
    out["answer.accounted_share"] = statistics.median(
        accounted[Method.R_PS_DS]
    )
    out["answer.accounted_share_naive"] = statistics.median(
        accounted[Method.NAIVE]
    )
    return out


def batch_and_planner(program: Program, stream: WhatIfStream) -> dict:
    engine = program.engine
    queries = [
        program.query(stream.next())
        for _ in range(_scaled(BATCH_WHATIFS, program))
    ]
    clear_plan_cache()
    sequential = sum(timed(engine.answer, q)[0] for q in queries)
    clear_plan_cache()
    batched, _ = timed(engine.answer_batch, queries)

    planned = Mahif(MahifConfig(shards="auto", verify_plans=False))
    static_s = auto_s = 0.0
    for _ in range(_scaled(PLANNER_WHATIFS, program)):
        query = program.query(stream.next())
        clear_plan_cache()
        static_s += timed(engine.answer, query)[0]
        clear_plan_cache()
        auto_s += timed(planned.answer, query)[0]
    return {
        "batch.ms_per_query": 1000.0 * batched / len(queries),
        "batch.speedup": sequential / batched,
        "planner.auto_over_static": auto_s / static_s,
    }


def _scrape(program: Program) -> dict:
    """The result-cache counters of the stored history from ``/metrics``."""
    text = program.client.metrics()
    pattern = (
        r'^mahif_result_cache_(\w+)_total\{history="%s"\} (\d+)' % program.name
    )
    return {
        kind: int(value)
        for kind, value in re.findall(pattern, text, flags=re.MULTILINE)
    }


def service_layers(program: Program, stream, tally: Tally) -> dict:
    """The service called directly (no HTTP), then a few served cycles
    whose cache traffic is read back from ``/metrics``."""
    miss_s, hit_s, decode_s = [], [], []
    for _ in range(_scaled(SERVICE_WHATIFS, program)):
        spec = spec_of(stream.next())
        decode_s.append(timed(modifications_from_spec, spec)[0])
        for seconds, cached in ((miss_s, False), (hit_s, True)):
            elapsed, answers = timed(
                program.service.answer, program.name, [spec]
            )
            tally.check(answers[0]["cached"] is cached, "direct answer cache")
            seconds.append(elapsed)
    program.append(program.inputs.data_update(0))  # empties the cache
    before = _scrape(program)
    cycles = [
        served_cycle(program, stream, index, tally)
        for index in range(_scaled(TRACED_CYCLES, program))
    ]
    after = _scrape(program)
    counts = {kind: after[kind] - before.get(kind, 0) for kind in after}
    counts["retained"] = sum(c["retained"] for c in cycles)
    expected = len(cycles) * CYCLE_WHATIFS
    tally.check(
        counts["hits"] == expected * HIT_ROUNDS
        and counts["misses"] == counts["invalidations"] == expected
        and counts["retained"] == sum(c["dropped"] for c in cycles) == expected,
        f"cache traffic {counts} over {len(cycles)} cycles",
    )
    hit_round_trips = [s for c in cycles for s in c["hit"]]
    return {
        "wire.decode_spec_ms": _median_ms(decode_s),
        "service.answer_miss_ms": _median_ms(miss_s),
        "service.answer_hit_ms": _median_ms(hit_s),
        "service.http_overhead_ms": (
            _median_ms(hit_round_trips) - _median_ms(hit_s)
        ),
        "service.cache.hits": counts["hits"],
        "service.cache.misses": counts["misses"],
        "service.cache.dropped": counts["invalidations"],
        "service.cache.retained": counts["retained"],
    }


def store_layers(program: Program) -> dict:
    """A store of the workload's history built apart from the service's,
    so appends, time travel and reopening are timed on their own."""
    inputs = program.inputs
    version = min(m.position for m in inputs.base) - 1
    path = Path(tempfile.mkdtemp(prefix="store-", dir=RESULTS_DIR))
    try:
        store = HistoryStore.create(
            path / "h", inputs.database,
            checkpoint_interval=CHECKPOINT_INTERVAL, sync=True,
        )
        append_s = [
            timed(store.append, statement)[0] for statement in inputs.history
        ]
        as_of_s = [timed(store.as_of, version)[0] for _ in range(5)]
        replay_cost = store.replay_cost(version)
        store.close()
        open_s, store = timed(HistoryStore.open, path / "h", sync=True)
        store.close()
        log_bytes = (path / "h" / "log.jsonl").stat().st_size
        checkpoint_bytes = sum(
            f.stat().st_size for f in (path / "h" / "checkpoints").iterdir()
        )
    finally:
        shutil.rmtree(path, ignore_errors=True)
    return {
        "store.append_ms": _median_ms(append_s),
        "store.as_of_ms": _median_ms(as_of_s),
        "store.open_ms": 1000.0 * open_s,
        "store.replay_cost": replay_cost,
        "store.log_bytes_per_statement": log_bytes / len(inputs.history),
        "store.checkpoint_bytes": checkpoint_bytes,
    }


def run(program: Program, seed: int, seconds: float) -> dict:
    """One traced run over a set-up program; returns per-layer metrics,
    the tally and the Chrome trace."""
    tally = Tally()
    tracer = Tracer(program.inputs.name)
    config = program.engine.config

    stream = WhatIfStream(program.inputs, seed, LANE_TRACED)
    latencies = []
    while sum(latencies) < seconds * TAIL_SHARE:
        latencies.append(library_whatif(program, stream)[0])
    queries = [
        program.query(stream.next())
        for _ in range(_scaled(STAGED_WHATIFS, program))
    ]
    whole_s = 0.0
    counts: dict[str, list] = {}
    for tracer.operation, query in enumerate(queries, start=1):
        # Whole and staged back to back, each on a cold plan cache, so
        # their ratio compares like with like.
        clear_plan_cache()
        elapsed, whole = timed(program.engine.answer, query)
        whole_s += elapsed
        clear_plan_cache()
        delta, staged = staged_answer(tracer, query, config)
        tally.check(delta == whole.delta, "staged delta differs from whole")
        if tracer.operation <= DIAGNOSED_WHATIFS:
            for name, value in diagnose(tracer, delta, staged, tally).items():
                counts.setdefault(name, []).append(value)

    metrics = {
        span: tracer.median_ms(span)
        for span in sorted({s["name"] for s in tracer.spans})
        if span != "diagnostics"
    }
    metrics["dependency.self_ms"] = tracer.self_ms("dependency.slice_ms")
    metrics.update({n: statistics.median(v) for n, v in counts.items()})
    staged_s = sum(
        s["end"] - s["start"]
        for s in tracer.spans if s["name"] == "answer.staged_ms"
    )
    metrics["answer.staged_over_whole"] = staged_s / whole_s
    metrics["answer.whatif_ms_p90"] = summary(latencies)["p90"]

    metrics.update(solver_probes(program, queries[0], tally))
    metrics.update(
        method_comparison(
            program, queries[: _scaled(METHOD_WHATIFS, program)], tally
        )
    )
    metrics.update(batch_and_planner(program, stream))
    metrics.update(service_layers(program, stream, tally))
    metrics.update(store_layers(program))
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "trace": tracer.chrome_trace(),
    }
