"""``python -m benchmarks.e2e {run,layers,set,compare}`` (from the repo root).

* ``run --workload NAME [--seed S]`` — the end-to-end metrics;
* ``layers --workload NAME [--seed S]`` — the traced run on its own:
  layer table, exact counts, profiler overhead and the kernels;
* ``set --out FILE [--seed S]`` — every workload, both ways, one
  process each, merged into one set file;
* ``compare A.json B.json`` — judge set B against set A.

Results go to ``bench-artifacts/e2e/`` (gitignored) unless ``--out``
says otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import List, Optional

from benchmarks.e2e import run

ARTIFACTS = os.path.join(run.ROOT, "bench-artifacts", "e2e")


def _out(args: argparse.Namespace) -> str:
    return args.out or os.path.join(ARTIFACTS, f"seed{args.seed}.json")


def _run(args: argparse.Namespace) -> int:
    result = run.run_once(args.workload, args.seed, args.seconds, False, _out(args))
    return 0 if result["correct"] else 1


def _layers(args: argparse.Namespace) -> int:
    from benchmarks.e2e import kernels, layers

    result = run.run_once(args.workload, args.seed, None, True, _out(args))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print()
    print("\n".join(layers.render(values)))
    print("\nkernels (one operation, nothing else running)")
    for layer, (value, unit) in kernels.run_all().items():
        print(f"{layer:<40}{value:>16.6g} {unit}")
    return 0 if result["correct"] else 1


def _set(args: argparse.Namespace) -> int:
    from benchmarks.e2e.workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            command = [
                sys.executable, run.__file__, "--workload", workload,
                "--seed", str(args.seed), "--trace", trace, "--out", _out(args),
            ]  # fmt: skip
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            print("+", " ".join(command[2:]), flush=True)
            status |= subprocess.run(command, cwd=run.ROOT).returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "layers", "set"):
        sub = commands.add_parser(name)
        if name != "set":
            sub.add_argument("--workload", required=True)
        sub.add_argument("--seed", type=int, default=17)
        if name != "layers":
            sub.add_argument("--seconds", type=float, default=None)
        sub.add_argument("--out", default=None)
    sub = commands.add_parser("compare")
    sub.add_argument("a")
    sub.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from benchmarks.e2e import compare

        return compare.main(args.a, args.b, run.load_spec())
    return {"run": _run, "layers": _layers, "set": _set}[args.command](args)


if __name__ == "__main__":
    run.pin_hash_seed(["-m", "benchmarks.e2e"] + sys.argv[1:])
    sys.exit(main())
