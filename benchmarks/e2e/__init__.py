"""End-to-end benchmark of the CBT reproduction (see README.md here).

Four workloads driven only through public ``repro.*`` functions, a
drift-robust wall estimator, and an outside-in per-layer cost table.
Entry points: ``python3 benchmarks/e2e/run.py`` (the ``BENCHMARK.json``
contract) and ``python -m benchmarks.e2e {run,layers,compare}``.
"""
