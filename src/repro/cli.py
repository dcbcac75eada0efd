"""Command-line interface: Mahif as an actual middleware.

Answer a historical what-if query from the shell::

    python -m repro.cli whatif \
        --data ./tables/ \
        --history history.sql \
        --replace 1 "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 60" \
        --method R+PS+DS

* ``--data`` — a directory of ``<relation>.csv`` files (the pre-history
  database; a production deployment would read this via time travel),
* ``--history`` — a ``;``-separated SQL script (UPDATE/DELETE/INSERT),
* ``--replace POS SQL`` / ``--delete-stmt POS`` / ``--insert-stmt POS SQL``
  — the modifications (repeatable),
* ``--method`` — one of N, R, R+DS, R+PS, R+PS+DS (default R+PS+DS),
* ``--explain`` — also print why-provenance for each delta tuple,
* ``--out delta.csv`` — write the delta as CSV (with a sign column).

Batched service mode: answer many what-if queries over the shared
history in one call (shared time travel, shared reenactment plans,
optional worker pool — see DESIGN.md, "Answer pipeline")::

    python -m repro.cli whatif \
        --data ./tables/ --history history.sql \
        --batch queries.json --batch-workers 4 --out deltas.jsonl

``queries.json`` holds a JSON array of modification specs, each with any
of ``"replace"``/``"insert_stmt"`` (lists of ``[position, sql]`` pairs)
and ``"delete_stmt"`` (list of positions)::

    [
        {"replace": [[1, "UPDATE Orders SET Fee = 0 WHERE Price >= 60"]]},
        {"replace": [[1, "UPDATE Orders SET Fee = 0 WHERE Price >= 70"]]},
        {"delete_stmt": [2]}
    ]

The answers are emitted as JSON lines — one object per query, in input
order, with the per-relation ``+``/``-`` tuples and timing — to stdout
or to ``--out``.

Service mode: ``python -m repro.cli serve`` runs the concurrent what-if
server over a root directory of persistent history stores (see
DESIGN.md, "Service architecture")::

    python -m repro.cli serve --root ./stores --port 8734 \
        --name orders --data ./tables/ --history history.sql

and ``--url`` on ``whatif`` remote-executes the same ``--replace``/
``--batch`` flags against a stored history instead of computing
in-process::

    python -m repro.cli whatif --url http://127.0.0.1:8734 \
        --name orders --batch queries.json

There is also ``python -m repro.cli replay`` to simply execute a history
and print/export the final state.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from .core import HistoricalWhatIfQuery, Mahif, MahifConfig, Method
from .core.provenance import explain_delta
from .relational import BACKENDS, History, parse_history
from .relational.csvio import format_value, load_database_dir, relation_to_csv
from .relational.parser import ParseError

__all__ = ["main", "build_parser"]

_METHODS = {m.value: m for m in Method}


def _print(*values: object, **kwargs: object) -> None:
    """The CLI's output funnel — deltas, tables, status lines.

    The repro-lint ``no-print`` rule keeps ``src/repro`` free of bare
    ``print()``; user-facing CLI output is the sanctioned exception,
    concentrated here behind one pragma.
    """
    # repro-lint: allow[no-print] -- the CLI's user-facing output funnel
    print(*values, **kwargs)


def _fail(message: str) -> "SystemExit":
    """One-line error to stderr, nonzero exit — never a traceback."""
    return SystemExit(f"repro.cli: error: {message}")


def _shards_flag(text: str) -> "int | str":
    """``--shards`` value (deprecated): a count, ``0``, or ``auto``.

    The engine and service validate and count it; this only parses the
    shape.
    """
    if text.strip().lower() == "auto":
        return "auto"
    return int(text)  # ValueError -> argparse's invalid-value message


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Mahif: answer historical what-if queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    whatif = sub.add_parser("whatif", help="answer a what-if query")
    whatif.add_argument("--data",
                        help="directory of <relation>.csv files "
                        "(required unless --url targets a stored history)")
    whatif.add_argument("--history",
                        help="SQL script file with the history "
                        "(required unless --url targets a stored history)")
    whatif.add_argument(
        "--replace", nargs=2, action="append", default=[],
        metavar=("POS", "SQL"), help="replace statement at POS",
    )
    whatif.add_argument(
        "--delete-stmt", action="append", default=[], metavar="POS",
        help="delete the statement at POS",
    )
    whatif.add_argument(
        "--insert-stmt", nargs=2, action="append", default=[],
        metavar=("POS", "SQL"), help="insert a statement before POS",
    )
    whatif.add_argument(
        "--method", default="R+PS+DS", choices=sorted(_METHODS),
        help="answering method (default: R+PS+DS)",
    )
    whatif.add_argument(
        "--slicing", default="dependency",
        choices=("dependency", "greedy"),
        help="program-slicing algorithm",
    )
    whatif.add_argument(
        "--backend", default="compiled",
        choices=BACKENDS,
        help="execution backend: compiled (columnar kernels for "
        "queries, row closures for statement replay), the tree-walking "
        "reference interpreter, server-side SQL on in-memory sqlite, "
        "or vector (the columnar kernels' older name)",
    )
    whatif.add_argument(
        "--shards", type=_shards_flag, default=None, metavar="N",
        help="deprecated, changes no answer (every answer runs "
        "unsharded); still accepts a count from 1 to 64, 0 or 'auto'",
    )
    whatif.add_argument(
        "--explain", action="store_true",
        help="EXPLAIN ANALYZE: print the per-operator time/row profile "
        "of both reenactment queries (and, for a single local query, "
        "why-provenance for delta tuples); with --batch or --url the "
        "JSON answers gain a \"profile\" tree instead",
    )
    whatif.add_argument("--out", help="write the delta as CSV")
    whatif.add_argument("--quiet", action="store_true")
    whatif.add_argument(
        "--batch", metavar="SPEC.JSON",
        help="answer a JSON array of modification specs over the shared "
        "history in one batched call, emitting JSON-lines deltas "
        "(--replace/--delete-stmt/--insert-stmt are then ignored; "
        "--out redirects the JSON lines)",
    )
    whatif.add_argument(
        "--batch-workers", type=int, default=0, metavar="N",
        help="worker pool size for --batch: processes for the in-process "
        "backends, threads for sqlite (default 0: no pool)",
    )
    whatif.add_argument(
        "--url", metavar="URL",
        help="remote-execute against a running what-if service instead of "
        "computing in-process (see the serve command); answers come back "
        "as JSON",
    )
    whatif.add_argument(
        "--name", metavar="NAME",
        help="with --url: the stored history to query; when --data/"
        "--history are also given, the history is registered under this "
        "name first",
    )
    whatif.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="with --url: retry shed (503) and transport failures up to "
        "N times with exponential backoff + jitter, honoring the "
        "server's Retry-After hint (default 2; 0 disables)",
    )
    whatif.add_argument(
        "--deadline-ms", type=int, default=None, metavar="MS",
        help="with --url: total time budget per call across retries, "
        "also propagated to the server as X-Mahif-Deadline-Ms so it "
        "stops computing once nobody is waiting",
    )

    replay = sub.add_parser("replay", help="execute a history")
    replay.add_argument("--data", required=True)
    replay.add_argument("--history", required=True)
    replay.add_argument("--relation", help="print only this relation")
    replay.add_argument("--out", help="write the final state CSV here")
    replay.add_argument(
        "--bag", action="store_true",
        help="replay under bag semantics; --out writes a multiplicity "
        "(_count) column so duplicates survive the CSV round-trip",
    )

    serve = sub.add_parser(
        "serve", help="run the concurrent what-if service"
    )
    serve.add_argument(
        "--root", required=True,
        help="directory holding the persistent history stores (created "
        "if missing; existing stores are reopened)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8734,
        help="listen port (0 binds an ephemeral port, printed on start)",
    )
    serve.add_argument(
        "--backend", default="compiled", choices=BACKENDS,
        help="default execution backend for answers",
    )
    serve.add_argument(
        "--checkpoint-interval", type=int, default=32, metavar="K",
        help="snapshot checkpoint every K statements in new stores",
    )
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="default worker pool for batched answers",
    )
    serve.add_argument(
        "--shards", type=_shards_flag, default=None, metavar="N",
        help="deprecated, changes no answer (every answer runs "
        "unsharded); still accepts a count from 1 to 64, 0 or 'auto'",
    )
    serve.add_argument(
        "--name", help="preload: register this history name on startup"
    )
    serve.add_argument(
        "--data", help="preload: directory of <relation>.csv files"
    )
    serve.add_argument(
        "--history", help="preload: SQL script file with the history"
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=32, metavar="N",
        help="admission control: concurrent compute (whatif/batch) "
        "requests admitted; beyond N new ones are shed with 503 + "
        "Retry-After instead of queueing without bound (0 disables)",
    )
    serve.add_argument(
        "--deadline-ms", type=int, default=None, metavar="MS",
        help="server-side default deadline for compute requests when "
        "the client sends no X-Mahif-Deadline-Ms header; expiring "
        "requests get a fast 504 (default: no timeout)",
    )
    serve.add_argument(
        "--max-body-bytes", type=int, default=16 * 1024 * 1024,
        metavar="BYTES",
        help="largest accepted request body; bigger ones are refused "
        "with 413 before being read (default 16 MiB)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="how long graceful shutdown waits for in-flight requests "
        "to finish before closing (default 10)",
    )
    serve.add_argument(
        "--no-sync", action="store_true",
        help="skip fsync on appends and checkpoints: faster, but a "
        "power loss can drop acknowledged statements (crash-safety of "
        "the log format itself is unaffected)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log one line per HTTP request to stderr",
    )
    serve.add_argument(
        "--no-metrics", action="store_true",
        help="disable the GET /metrics Prometheus text endpoint "
        "(enabled by default; metrics are still collected in-process)",
    )
    serve.add_argument(
        "--trace-sink", metavar="PATH",
        help="append per-request trace trees as JSON lines to PATH "
        "(tracing is off without this flag)",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="FRACTION",
        help="fraction of requests to trace when --trace-sink is set, "
        "0..1 (default 1.0: every request; ids still propagate when "
        "a request is unsampled)",
    )
    return parser


def _load_history(path: str) -> History:
    try:
        with open(path) as fh:
            return History(tuple(parse_history(fh.read())))
    except OSError as exc:
        raise _fail(f"cannot read history script {path!r}: {exc}") from None
    except ParseError as exc:
        raise _fail(f"history script {path!r}: {exc}") from None


def _load_database(path: str):
    try:
        return load_database_dir(path)
    except OSError as exc:
        raise _fail(f"cannot read CSV data from {path!r}: {exc}") from None
    except ValueError as exc:
        raise _fail(f"CSV data in {path!r}: {exc}") from None


def _build_modifications(args: argparse.Namespace):
    """Modification objects from the flags — the flags become a wire
    spec, parsed by the same :func:`modifications_from_spec` the server
    and the ``--batch`` path use (one parser, one error style)."""
    from .service.wire import SpecError, modifications_from_spec

    try:
        return modifications_from_spec(_modification_spec(args))
    except SpecError as exc:
        raise _fail(f"unparseable modification flags: {exc}") from None


def _modification_spec(args: argparse.Namespace) -> dict:
    """The wire-format spec equivalent of the modification flags."""
    spec: dict = {}
    try:
        if args.replace:
            spec["replace"] = [[int(p), sql] for p, sql in args.replace]
        if args.delete_stmt:
            spec["delete_stmt"] = [int(p) for p in args.delete_stmt]
        if args.insert_stmt:
            spec["insert_stmt"] = [
                [int(p), sql] for p, sql in args.insert_stmt
            ]
    except (TypeError, ValueError) as exc:
        raise _fail(f"bad modification position: {exc}") from None
    if not spec:
        raise SystemExit(
            "at least one --replace/--delete-stmt/--insert-stmt is required"
        )
    return spec


def _load_batch_specs(path: str) -> list:
    """Read a ``--batch`` spec file: a non-empty JSON array of objects.

    Unreadable files and non-JSON content get a one-line error instead
    of a traceback; per-entry shape validation happens in
    :func:`repro.service.wire.modifications_from_spec`.
    """
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise _fail(f"cannot read --batch spec {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _fail(f"--batch spec {path!r} is not valid JSON: {exc}") from None
    if not isinstance(spec, list) or not spec:
        raise _fail(
            f"--batch spec {path!r} must be a non-empty JSON array of "
            "modification specs"
        )
    return spec


def _parse_batch_spec(path: str):
    """Parse a ``--batch`` spec file into per-query modification tuples."""
    from .service.wire import SpecError, modifications_from_spec

    batches = []
    for index, entry in enumerate(_load_batch_specs(path)):
        try:
            batches.append(modifications_from_spec(entry))
        except SpecError as exc:
            # Malformed shapes ([[1]] missing the SQL, a dict instead of
            # pair lists, a non-numeric position, ...) get the entry
            # index instead of a raw traceback.
            raise _fail(f"--batch entry {index}: {exc}") from None
    return batches


def _delta_json(result, index: int) -> str:
    """One JSON-lines record for a batched answer — the shared wire
    encoder, keeping every empty relation delta for backward
    compatibility (the service omits them)."""
    from .service.wire import answer_json

    return answer_json(result, {"query": index}, include_empty=True)


def _print_profile(profile, *, file=None) -> None:
    """Render EXPLAIN ANALYZE trees: per affected relation, the
    per-operator time/row profile of both reenactment queries.

    Accepts both in-process :class:`~repro.obs.profile.OperatorProfile`
    values (the local path) and their JSON payloads (over ``--url``).
    """
    from .obs.profile import OperatorProfile

    for relation in sorted(profile):
        for side in ("original", "modified"):
            prof = profile[relation].get(side)
            if prof is None:
                continue
            if not isinstance(prof, OperatorProfile):
                prof = OperatorProfile.from_payload(prof)
            _print(f"\nEXPLAIN ANALYZE {relation} ({side} history):",
                  file=file)
            _print(prof.pretty(1), file=file)


def _emit_json_lines(lines: list[str], args: argparse.Namespace) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if not args.quiet:
            _print(f"{len(lines)} deltas written to {args.out}")
    else:
        for line in lines:
            _print(line)


def _cmd_whatif_remote(args: argparse.Namespace) -> int:
    """Remote-execute --replace/--batch against a running service."""
    from .service import ServiceClient, ServiceClientError

    if not args.name:
        raise _fail("--url requires --name (the stored history to query)")
    # Validate all local inputs *before* any server-side effect, so a
    # malformed flag cannot leave a half-registered history behind.
    if args.batch:
        specs = _load_batch_specs(args.batch)
    else:
        specs = None
        single_spec = _modification_spec(args)
    if args.retries < 0:
        raise _fail("--retries must be >= 0")
    if args.deadline_ms is not None and args.deadline_ms < 1:
        raise _fail("--deadline-ms must be >= 1")
    client = ServiceClient(
        args.url,
        retries=args.retries,
        deadline=(
            args.deadline_ms / 1000.0
            if args.deadline_ms is not None
            else None
        ),
    )
    try:
        if args.data or args.history:
            if not (args.data and args.history):
                raise _fail(
                    "registering a history over --url needs both --data "
                    "and --history"
                )
            database = _load_database(args.data)
            history = _load_history(args.history)
            try:
                client.register(args.name, database, history)
            except ServiceClientError as exc:
                # Swallow only the duplicate-name conflict (a verbatim
                # re-run of the register+query one-liner); other 409s
                # (registration in flight, store-level failures) are
                # real errors.
                duplicate = f"history {args.name!r} already exists"
                if exc.status != 409 or duplicate not in str(exc):
                    raise
                # Status lines go to stderr: stdout carries only the
                # JSONL answers, like the local --batch path.
                if not args.quiet:
                    _print(
                        f"history {args.name!r} already exists on the "
                        "server; querying the stored history "
                        "(--data/--history ignored)",
                        file=sys.stderr,
                    )
            else:
                if not args.quiet:
                    _print(
                        f"registered history {args.name!r} "
                        f"({len(history)} statements)",
                        file=sys.stderr,
                    )
        if specs is not None:
            results = client.whatif_batch(
                args.name, specs, method=args.method, backend=args.backend,
                workers=args.batch_workers or None,
                shards=args.shards,
                explain=args.explain,
            )
        else:
            results = [
                client.whatif(
                    args.name, single_spec,
                    method=args.method, backend=args.backend,
                    shards=args.shards,
                    explain=args.explain,
                )
            ]
    except ServiceClientError as exc:
        raise _fail(f"service call failed: {exc}") from None
    lines = [
        json.dumps({"query": index, **result})
        for index, result in enumerate(results)
    ]
    _emit_json_lines(lines, args)
    if args.explain and not args.quiet and specs is None:
        # The JSON answer above carries the raw profile payload; also
        # render the tree for a human, like the local path (stderr, so
        # stdout stays machine-parseable JSONL).
        profile = results[0].get("profile")
        if profile:
            _print_profile(profile, file=sys.stderr)
    return 0


def _cmd_whatif_batch(args: argparse.Namespace) -> int:
    database = _load_database(args.data)
    history = _load_history(args.history)
    queries = [
        HistoricalWhatIfQuery(history, database, modifications)
        for modifications in _parse_batch_spec(args.batch)
    ]
    config = _engine_config(args, batch_workers=args.batch_workers)
    results = Mahif(config).answer_batch(
        queries, _METHODS[args.method], explain=args.explain
    )
    lines = [
        _delta_json(result, index) for index, result in enumerate(results)
    ]
    _emit_json_lines(lines, args)
    return 0


def _engine_config(
    args: argparse.Namespace, *, batch_workers: int = 0
) -> MahifConfig:
    """The engine configuration the whatif flags describe."""
    try:
        return MahifConfig(
            slicing_algorithm=args.slicing,
            backend=args.backend,
            batch_workers=batch_workers,
            shards=args.shards,
        )
    except ValueError as exc:
        raise _fail(str(exc)) from None


def _require_local_inputs(args: argparse.Namespace) -> None:
    if not args.data or not args.history:
        raise _fail(
            "--data and --history are required (or pass --url to query a "
            "stored history on a running service)"
        )


def _cmd_whatif(args: argparse.Namespace) -> int:
    if args.url:
        return _cmd_whatif_remote(args)
    _require_local_inputs(args)
    if args.batch:
        return _cmd_whatif_batch(args)
    database = _load_database(args.data)
    history = _load_history(args.history)
    modifications = _build_modifications(args)
    query = HistoricalWhatIfQuery(history, database, modifications)
    config = _engine_config(args)
    result = Mahif(config).answer(
        query, _METHODS[args.method], explain=args.explain
    )

    if not args.quiet:
        _print(result.delta.pretty())
        _print()
        _print(
            f"method={args.method} "
            f"ps={result.ps_seconds:.3f}s exe={result.exe_seconds:.3f}s"
        )
        if result.slice_result:
            s = result.slice_result
            _print(
                f"slice: kept {len(s.kept_positions)}/{s.total_positions} "
                f"statements ({s.solver_calls} solver calls)"
            )

    if args.explain and result.profile is not None:
        _print_profile(result.profile)

    if args.explain and result.queries_original is not None:
        for relation in sorted(result.delta.relations):
            explanation = explain_delta(result, relation)
            _print(f"\nprovenance for Δ {relation}:")
            for row, witnesses in sorted(
                explanation.items(), key=lambda kv: repr(kv[0])
            ):
                sources = ", ".join(
                    f"{w.relation}{w.row}" for w in sorted(
                        witnesses, key=lambda s: repr(s.row)
                    )
                ) or "(query-generated)"
                _print(f"  {row} <- {sources}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            for relation in sorted(result.delta.relations):
                delta = result.delta[relation]
                writer.writerow(
                    ["relation", "sign", *delta.schema.attributes]
                )
                for sign, row in delta.annotated_rows():
                    writer.writerow(
                        [relation, sign, *[format_value(v) for v in row]]
                    )
        if not args.quiet:
            _print(f"\ndelta written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import (
        ResilienceConfig,
        ServiceError,
        WhatIfServer,
        WhatIfService,
    )

    try:
        resilience = ResilienceConfig(
            max_in_flight=args.max_in_flight,
            default_deadline_ms=args.deadline_ms,
            max_body_bytes=args.max_body_bytes,
            drain_timeout=args.drain_timeout,
        )
    except ValueError as exc:
        raise _fail(str(exc)) from None
    try:
        service = WhatIfService(
            args.root,
            default_backend=args.backend,
            checkpoint_interval=args.checkpoint_interval,
            batch_workers=args.workers,
            default_shards=args.shards,
            sync=not args.no_sync,
        )
    except (ServiceError, OSError) as exc:
        raise _fail(f"cannot start service: {exc}") from None
    if args.trace_sample < 0.0 or args.trace_sample > 1.0:
        raise _fail("--trace-sample must be between 0 and 1")
    if args.trace_sink:
        from .obs.trace import configure_tracing

        try:
            # The sink reopens per flush; probe now so an unwritable
            # path fails at startup instead of silently dropping traces.
            with open(args.trace_sink, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise _fail(
                f"cannot open --trace-sink {args.trace_sink!r}: {exc}"
            ) from None
        configure_tracing(args.trace_sink, sample=args.trace_sample)
    if args.name and args.name not in service.history_names():
        if not (args.data and args.history):
            raise _fail(
                "preloading --name needs both --data and --history"
            )
        database = _load_database(args.data)
        history = _load_history(args.history)
        try:
            service.register(args.name, database, history)
        except ServiceError as exc:
            raise _fail(f"cannot register {args.name!r}: {exc}") from None
        _print(
            f"registered history {args.name!r} ({len(history)} statements)",
            flush=True,
        )
    elif args.name and (args.data or args.history):
        _print(
            f"history {args.name!r} already exists under {args.root}; "
            "serving the persisted history (--data/--history ignored — "
            "append via the API to evolve it)",
            flush=True,
        )
    server = WhatIfServer(
        service, host=args.host, port=args.port, quiet=not args.verbose,
        resilience=resilience, metrics=not args.no_metrics,
    )
    host, port = server.address
    observability = "metrics=off" if args.no_metrics else "metrics=/metrics"
    if args.trace_sink:
        observability += (
            f", tracing {args.trace_sample:g} of requests "
            f"to {args.trace_sink}"
        )
    _print(
        f"serving what-if queries on http://{host}:{port} "
        f"(root={args.root}, backend={args.backend}, "
        f"histories={service.history_names()}, {observability})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    database = _load_database(args.data)
    history = _load_history(args.history)
    if args.bag:
        # Bag semantics: duplicates are data; the plain relation CSV
        # writer refuses bags, so export goes through bag_to_csv.
        from .relational import BagDatabase, execute_history_bag
        from .relational.csvio import bag_to_csv

        final_bag = execute_history_bag(
            history, BagDatabase.from_set_database(database)
        )
        names = (
            [args.relation] if args.relation else final_bag.relation_names()
        )
        for name in names:
            _print(f"== {name} ==")
            _print(final_bag[name].to_set_relation().pretty())
        if args.out:
            target = args.relation or names[0]
            bag_to_csv(final_bag[target], args.out)
            _print(f"\n{target} written to {args.out} (bag, _count column)")
        return 0
    final = history.execute(database)
    names = [args.relation] if args.relation else final.relation_names()
    for name in names:
        _print(f"== {name} ==")
        _print(final[name].pretty())
    if args.out:
        target = args.relation or names[0]
        relation_to_csv(final[target], args.out)
        _print(f"\n{target} written to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "whatif":
        return _cmd_whatif(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
