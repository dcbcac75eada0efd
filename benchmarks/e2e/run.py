#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md beside this file).

One workload, as the driver runs it::

    python3 benchmarks/e2e/run.py --workload slice_bound --seed 7 \\
        --seconds 20 --trace 0

prints a table and, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--workload`` every workload of ``BENCHMARK.json`` is run, each
in a fresh interpreter, first with tracing off and then traced, and the
result set is written to ``benchmarks/e2e/results/latest.json``.
``compare A.json B.json`` judges two such files against the bounds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Run as a script, the interpreter puts this directory first on the path;
# the benchmark is imported as the package ``benchmarks.e2e`` instead and
# the program under test from ``src``.
sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
    p for p in sys.path if Path(p or ".").resolve() != Path(__file__).parent
]

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def declared_metrics(trace: int) -> dict[str, dict]:
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in DECLARED[kind]}


def run_workload(
    name: str, seed: int, seconds: float, trace: int, scale: float = 1.0
) -> dict:
    """One run in this interpreter; returns the driver's result object
    plus, under ``detail``, what the table prints."""
    from benchmarks.e2e import layers, session

    if trace:
        _, program = session.set_up(name, seed, scale)
        try:
            outcome = layers.run(program, seed, seconds)
        finally:
            program.close()
        path = session.RESULTS_DIR / f"trace-{name}.json"
        path.write_text(json.dumps(outcome.pop("trace")))
    else:
        outcome = session.run(name, seed, seconds, scale)
    declared = declared_metrics(trace)
    if set(outcome["metrics"]) != set(declared):
        raise SystemExit(
            "metrics measured and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(outcome['metrics']) ^ set(declared))}"
        )
    return {
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": {
            metric: {"value": value, "unit": declared[metric]["unit"]}
            for metric, value in outcome["metrics"].items()
        },
        "detail": {
            key: outcome[key]
            for key in ("failures", "summaries", "cycles")
            if key in outcome
        },
    }


def print_run(name: str, seed: int, trace: int, result: dict) -> None:
    detail = result["detail"]
    print(f"== {name}  seed={seed}  trace={trace}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:14.4f} {entry['unit']}")
    for kind, s in detail.get("summaries", {}).items():
        print(
            f"  [{kind:11s}] n={s['n']:4d}  p50={s['p50']:9.3f} ms  "
            f"q1={s['q1']:9.3f}  q3={s['q3']:9.3f}  p90={s['p90']:9.3f}"
        )
    if "cycles" in detail:
        print(f"  served cycles: {detail['cycles']}")
    share = result["failed"] / result["attempted"]
    print(
        f"  failed_share = {share:.4f} "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    for reason in detail["failures"]:
        print(f"  FAILED: {reason}")


def run_all(args) -> int:
    """Every workload, each run in a fresh interpreter, one after the
    other; ``--repeat N`` appends N result sets (seed, seed + 1, ...)."""
    from benchmarks.e2e.session import RESULTS_DIR

    sets = []
    ok = True
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        results = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                command = [
                    sys.executable, __file__, "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--scale", str(args.scale),
                ]
                done = subprocess.run(
                    command, stdout=subprocess.PIPE, text=True, check=True
                )
                *table, last = done.stdout.rstrip().split("\n")
                print("\n".join(table))
                result = json.loads(last)
                ok = ok and result["correct"]
                entry = results.setdefault(
                    name, {"attempted": 0, "failed": 0, "metrics": {}}
                )
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["metrics"].update(
                    {m: e["value"] for m, e in result["metrics"].items()}
                )
        sets.append({"seed": seed, "workloads": results})
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "latest.json"
    target.write_text(json.dumps({"sets": sets}, indent=1))
    print(f"wrote {target.relative_to(ROOT)} ({len(sets)} result set(s))")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=DECLARED["run_seconds"],
        help="how long one run measures",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplies every row count (the smoke test's tiny runs)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="result sets to write when running every workload",
    )
    commands = parser.add_subparsers(dest="command")
    compare = commands.add_parser(
        "compare", help="judge result file B against result file A"
    )
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"the program under test is missing: {ROOT}/src/repro")
    if args.command == "compare":
        from benchmarks.e2e.compare import compare_files

        return compare_files(args.a, args.b, DECLARED)
    if args.workload is None:
        return run_all(args)
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.scale
    )
    print_run(args.workload, args.seed, args.trace, result)
    del result["detail"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
