"""Entry point: ``python -m benchmarks.perf [--quick] [--only NAME ...]``.

Runs the perf-regression suite, writes ``BENCH_<name>.json`` artifacts
under ``bench-artifacts/`` (or ``--output-dir``), and exits 1 when an
exact count differs from its stored baseline or a gated paired ratio
is more than 3x worse than it (see docs/PERFORMANCE.md).  With
``--rebaseline --only NAME`` it rewrites the committed baseline of each
named benchmark instead.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from benchmarks.perf.suite import BENCHMARKS, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="perf-regression suite (writes BENCH_<name>.json artifacts)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sizes; the whole suite finishes in under a minute",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help=f"run a subset (repeatable); one of: {', '.join(BENCHMARKS)}",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each benchmark under cProfile and print the top functions",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the regression gate against stored artifacts",
    )
    parser.add_argument(
        "--output-dir",
        help="write BENCH_*.json here instead of bench-artifacts/",
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="rewrite the committed baselines of the --only benchmarks "
        "(benchmarks/baselines/), printing old -> new per changed value",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_suite(
        quick=args.quick,
        only=args.only,
        profile=args.profile,
        check=not args.no_check,
        output_dir=args.output_dir,
        rebaseline=args.rebaseline,
    )


if __name__ == "__main__":
    sys.exit(main())
