"""Overload behavior: goodput and tail latency at 2× saturation,
admission control (shedding) on vs off.

The serving tier's claim (DESIGN.md, "Resilience") is that under
overload, *shedding beats queueing*: refusing work beyond
``max_in_flight`` with a fast 503 + Retry-After keeps the admitted
requests' latency bounded, while admitting everything makes every
request slow — the classic goodput collapse.  This benchmark measures
exactly that, with the GIL as the resource under contention (pure-Python
compute serializes, so N concurrent in-flight requests each take ~N×
the solo latency):

1. **Calibrate** — time solo requests to learn the per-request compute
   latency ``L``; the per-request deadline budget is ``D = 6 L``.
2. **Shedding off** (``max_in_flight=0``) — ``CLIENTS`` concurrent
   clients (2× the slot count used in the on-pass) each issue distinct
   what-if queries (no cache hits).  Everything is admitted, everything
   time-shares the GIL, so per-request latency ≈ ``CLIENTS × L > D``.
3. **Shedding on** (``max_in_flight = CLIENTS/2``) — same offered load;
   beyond the slot limit requests are shed and the client retries after
   the server's ``Retry-After`` hint.  Admitted requests see at most
   ``CLIENTS/2`` GIL-sharers, so they finish within budget.

A request is **good** if it succeeded within its deadline budget
(measured client-side; no server-side 504s, so the passes cannot pollute
each other with abandoned computations).  Goodput = good requests /
wall-clock of the pass.  The asserted floor — shedding-on goodput ≥
shedding-off goodput — is the acceptance criterion for admission
control actually buying something under saturation.

Results land in ``results.jsonl`` (experiment ``"resilience"``) and
``BENCH_resilience.json`` at the repo root (untracked).
"""

import json
import os
import pathlib
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro.bench import print_series_table
from repro.relational.expressions import Attr
from repro.relational.sqlgen import statement_to_sql
from repro.relational.statements import UpdateStatement
from repro.service import (
    ResilienceConfig,
    ServiceClient,
    ServiceClientError,
    WhatIfServer,
    WhatIfService,
)
from repro.workloads import WorkloadSpec, build_workload

from .common import SMALL_ROWS, record

BACKEND = "compiled"
#: Concurrent clients = 2× the admitted slots: the "2× saturation" load.
CLIENTS = int(os.environ.get("MAHIF_BENCH_RESILIENCE_CLIENTS", "8"))
MAX_IN_FLIGHT = max(CLIENTS // 2, 1)
REQUESTS_PER_CLIENT = int(
    os.environ.get("MAHIF_BENCH_RESILIENCE_REQUESTS", "4")
)
#: Floored: below ~1200 rows the solo latency (~10 ms) is comparable to
#: HTTP + thread-scheduling noise and the pass-boundary transients, and
#: the goodput ordering stops being about admission control at all.
ROWS = max(SMALL_ROWS, 1200)
UPDATES = 20
MOD_POSITION = 16
#: Deadline budget as a multiple of the solo request latency: above the
#: shedding-on in-flight share (MAX_IN_FLIGHT×L), below the shedding-off
#: one (CLIENTS×L).
DEADLINE_FACTOR = 6.0
TARGET = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_resilience.json"
)


def _specs(workload, count: int, salt: int) -> list[dict]:
    """``count`` pairwise-distinct single-query specs (never cache
    hits, also across passes thanks to ``salt``)."""
    base = workload.history[MOD_POSITION]
    value = workload.value_attribute
    specs = []
    for i in range(count):
        replacement = UpdateStatement(
            base.relation,
            {value: Attr(value) + (3 + salt * 1000 + i)},
            base.condition,
        )
        specs.append(
            {"replace": [[MOD_POSITION, statement_to_sql(replacement)]]}
        )
    return specs


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _run_pass(
    workload,
    specs: list[dict],
    *,
    max_in_flight: int,
    deadline: float,
    retry_after: float,
) -> dict:
    """One overload pass against a fresh server; per-request latency and
    success are measured client-side against ``deadline``."""
    with tempfile.TemporaryDirectory(prefix="mahif-bench-res-") as root:
        service = WhatIfService(root, default_backend=BACKEND)
        service.register("bench", workload.database, workload.history)
        server = WhatIfServer(
            service,
            port=0,
            resilience=ResilienceConfig(
                max_in_flight=max_in_flight, retry_after=retry_after
            ),
        ).start_background()
        try:
            url = server.url
            outcomes: list[tuple[bool, float]] = []

            def run_client(client_index: int) -> list[tuple[bool, float]]:
                client = ServiceClient(url, retries=25)
                mine = specs[
                    client_index * REQUESTS_PER_CLIENT:
                    (client_index + 1) * REQUESTS_PER_CLIENT
                ]
                results = []
                for spec in mine:
                    begin = time.perf_counter()
                    try:
                        client.whatif("bench", spec, backend=BACKEND)
                        ok = True
                    except ServiceClientError:
                        ok = False
                    latency = time.perf_counter() - begin
                    results.append((ok and latency <= deadline, latency))
                return results

            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                for chunk in pool.map(run_client, range(CLIENTS)):
                    outcomes.extend(chunk)
            elapsed = time.perf_counter() - start
            shed_total = server.admission.shed_total
        finally:
            server.shutdown()

    good = sum(1 for ok, _ in outcomes if ok)
    latencies = [latency for _, latency in outcomes]
    return {
        "max_in_flight": max_in_flight,
        "requests": len(outcomes),
        "good": good,
        "goodput_qps": good / elapsed,
        "p50_s": _percentile(latencies, 0.50),
        "p99_s": _percentile(latencies, 0.99),
        "shed_total": shed_total,
        "elapsed_s": elapsed,
    }


def _calibrate(workload) -> float:
    """Solo request latency ``L`` (median of a few warmed requests)."""
    probes = _specs(workload, 4, salt=9)
    with tempfile.TemporaryDirectory(prefix="mahif-bench-res-") as root:
        service = WhatIfService(root, default_backend=BACKEND)
        service.register("bench", workload.database, workload.history)
        server = WhatIfServer(service, port=0).start_background()
        try:
            client = ServiceClient(server.url)
            client.whatif("bench", probes[0], backend=BACKEND)  # warm-up
            samples = []
            for spec in probes[1:]:
                begin = time.perf_counter()
                client.whatif("bench", spec, backend=BACKEND)
                samples.append(time.perf_counter() - begin)
        finally:
            server.shutdown()
    return _percentile(samples, 0.5)


def _run_resilience_bench() -> dict:
    workload = build_workload(
        WorkloadSpec(dataset="taxi", rows=ROWS, updates=UPDATES, seed=7)
    )
    solo = _calibrate(workload)
    deadline = DEADLINE_FACTOR * solo
    # The Retry-After hint must scale with the workload: one solo
    # latency per cycle.  Much longer burns the deadline budget
    # sleeping; much shorter needs so many cycles per slot wait (~4 L)
    # that clients exhaust their retry budget.
    retry_after = min(max(solo, 0.005), 0.25)
    total = CLIENTS * REQUESTS_PER_CLIENT
    # Shedding OFF first: its stragglers all complete inside the pass
    # (no server-side aborts), so nothing leaks into the ON pass.
    off = _run_pass(
        workload,
        _specs(workload, total, salt=0),
        max_in_flight=0,
        deadline=deadline,
        retry_after=retry_after,
    )
    on = _run_pass(
        workload,
        _specs(workload, total, salt=1),
        max_in_flight=MAX_IN_FLIGHT,
        deadline=deadline,
        retry_after=retry_after,
    )
    row = {
        "backend": BACKEND,
        "rows": ROWS,
        "updates": UPDATES,
        "clients": CLIENTS,
        "requests": total,
        "solo_latency_s": solo,
        "deadline_s": deadline,
        "retry_after_s": retry_after,
        "shedding_off": off,
        "shedding_on": on,
    }
    record("resilience", row)
    return row


def test_goodput_under_overload(benchmark):
    row = benchmark.pedantic(
        _run_resilience_bench, rounds=1, iterations=1
    )
    off, on = row["shedding_off"], row["shedding_on"]

    report = {
        "experiment": "resilience",
        "workload": {
            "dataset": "taxi",
            "rows": ROWS,
            "updates": UPDATES,
            "modified_position": MOD_POSITION,
            "clients": CLIENTS,
            "max_in_flight": MAX_IN_FLIGHT,
            "requests": row["requests"],
            "deadline_factor": DEADLINE_FACTOR,
            "backend": BACKEND,
            "metric": "goodput (successes within deadline / wall-clock) "
            "and latency percentiles at 2x saturation, admission "
            "control on vs off",
        },
        "overload": [row],
    }
    with TARGET.open("w") as out:
        json.dump(report, out, indent=2)

    print_series_table(
        f"Resilience — {CLIENTS} clients vs {MAX_IN_FLIGHT} slots "
        f"(taxi, U{UPDATES}, deadline {row['deadline_s']*1000:.0f} ms)",
        ["shedding", "good/total", "goodput qps", "p50 s", "p99 s",
         "shed"],
        [
            ["off", f"{off['good']}/{off['requests']}",
             off["goodput_qps"], off["p50_s"], off["p99_s"],
             off["shed_total"]],
            ["on", f"{on['good']}/{on['requests']}",
             on["goodput_qps"], on["p50_s"], on["p99_s"],
             on["shed_total"]],
        ],
        note="good = 200 within the deadline budget; floor: on ≥ off",
    )

    assert on["goodput_qps"] >= off["goodput_qps"], (
        "admission control no longer pays for itself under overload: "
        f"shedding-on {on['goodput_qps']:.2f} qps < shedding-off "
        f"{off['goodput_qps']:.2f} qps"
    )
