"""``compare A.json B.json``: is B a regression from A?

Both files hold the result sets ``run.py --repeat N`` writes.  For each
end-to-end metric on each workload the medians over the sets are
compared against the metric's bound in ``BENCHMARK.json``:

* *unresolved* — A's own sets spread (distance between the quartiles,
  as a share of the median) wider than the bound, so a difference of
  the bound's size cannot be told from noise,
* *worse* / *better* — B's median is beyond the bound from A's,
* *within bound* — otherwise.

Every ratio is printed with its base.  Exit status 1 on any *worse*.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _values(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per result set."""
    values: dict[tuple[str, str], list[float]] = {}
    for result_set in json.loads(path.read_text())["sets"]:
        for workload, entry in result_set["workloads"].items():
            for metric, value in entry["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(verdict, B's median over A's, A's spread) for one pairing."""
    base, other = statistics.median(a), statistics.median(b)
    spread = 0.0
    if len(a) > 1:
        q1, _, q3 = statistics.quantiles(a, n=4)
        spread = (q3 - q1) / base
    ratio = other / base
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if spread > bound:
        return "unresolved", ratio, spread
    if worsening > bound:
        return "worse", ratio, spread
    if worsening < -bound:
        return "better", ratio, spread
    return "within bound", ratio, spread


def compare_files(a_path: Path, b_path: Path, declared: dict) -> int:
    """``declared`` is the content of ``BENCHMARK.json``."""
    a, b = _values(a_path), _values(b_path)
    worse = 0
    print(f"A = {a_path} (base)   B = {b_path}")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        for workload, _ in sorted(k for k in a if k[1] == name):
            av, bv = a[workload, name], b[workload, name]
            outcome, ratio, spread = verdict(
                av, bv, metric["better"], metric["bound"]
            )
            worse += outcome == "worse"
            print(
                f"{name:16s} {workload:14s} {outcome:12s} "
                f"B/A = {ratio:6.3f}  (A = {statistics.median(av):10.4f} "
                f"{metric['unit']}, n = {len(av)}, spread {spread:.3f}; "
                f"B = {statistics.median(bv):10.4f}, n = {len(bv)}; "
                f"bound {metric['bound']:.2f}, {metric['better']} is better)"
            )
    # What the program counts repeats exactly for a seed, or it changed.
    counted = {
        m["name"] for m in declared["per_layer"]
        if m["unit"] in ("count", "bytes")
    }
    for workload, name in sorted(k for k in a if k in b and k[1] in counted):
        av, bv = a[workload, name], b[workload, name]
        if av != bv:
            print(f"{name:28s} {workload:14s} count differs: {av} vs {bv}")
    return 1 if worse else 0
