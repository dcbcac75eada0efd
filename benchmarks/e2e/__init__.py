"""The end-to-end benchmark of record (see README.md in this directory).

``python3 benchmarks/e2e/run.py`` is the entry point; ``BENCHMARK.json``
at the repository root names the workloads, the metrics, their units and
their regression bounds.
"""
