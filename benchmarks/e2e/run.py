#!/usr/bin/env python3
"""One benchmark run of one workload: the ``BENCHMARK.json`` command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics over K identical reps;
``--trace 1`` makes the per-layer table from one profiled rep.  Every
metric is printed by name with its unit, outputs are verified, and the
last line of stdout is the result as one JSON object.  Exit code 0
when the outputs are correct, 1 when they are not or the run could
not start.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def pin_hash_seed(command: List[str]) -> None:
    """Re-exec ``command`` with ``PYTHONHASHSEED=0`` unless already so.

    ``IPv4Address`` hashes through a string, so set and dict orders of
    addresses change from process to process, and with them how many
    Python-level ``__eq__``/``__lt__`` calls a sort or a lookup makes:
    simulated results are unaffected, but profiled call counts would
    repeat only to about 0.3 %.  Pinned, they repeat exactly."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + command)


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def record(
    spec: Dict[str, object], workload_name: str, seed: int, trace: bool, outcome
) -> Dict[str, object]:
    """The artifact for one run: the contract's result object plus what
    ``compare`` needs (seed, digest, rep walls)."""
    declared = spec["per_layer" if trace else "end_to_end"]
    values = outcome.pop("values")
    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        raise SystemExit(
            "BENCHMARK.json and the benchmark disagree on metric names: "
            f"{sorted(set(names) ^ set(values))}"
        )
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "metrics": metrics,
        **outcome,
    }


def report(result: Dict[str, object]) -> List[str]:
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"trace {result['trace']}  digest {result['result_digest']}"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"{name:<42}{metric['value']:>18.6g} {metric['unit']}")
    if "rep_wall_s" in result:
        from benchmarks.e2e.measure import quartiles

        walls = result["rep_wall_s"]
        q1, median, q3 = quartiles(walls)
        lines.append(
            f"whole-rep wall (calibrated): n={len(walls)} min={min(walls):.4f} "
            f"q1={q1:.4f} median={median:.4f} q3={q3:.4f} s over "
            f"{result['slices']} slices"
        )
        slowdown = ", ".join(f"{value:.3f}" for value in result["host_slowdown"])
        lines.append(
            f"raw composite wall {result['wall_raw_s']:.4f} s; host slowdown "
            f"per rep {slowdown}"
        )
    share = result["failed"] / result["attempted"]
    lines.append(
        f"op_fail_share {share:.6g} ({result['failed']} of "
        f"{result['attempted']} ops)"
    )
    lines.extend(f"FAILED: {note}" for note in result["notes"])
    return lines


def save(path: str, result: Dict[str, object]) -> None:
    """Merge ``result`` into the set file at ``path``."""
    runs: Dict[str, object] = {}
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)
    kind = "layers" if result["trace"] else "e2e"
    runs[f"{result['workload']}:{kind}"] = result
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(runs, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_once(
    workload_name: str,
    seed: int,
    seconds: Optional[float],
    trace: bool,
    out: Optional[str],
) -> Dict[str, object]:
    """Run, print the report, save to ``out`` if given; the result."""
    try:
        from benchmarks.e2e.workloads import WORKLOADS

        spec = load_spec()
    except (ImportError, OSError) as error:
        raise SystemExit(f"cannot start: {error}")
    import_s = time.perf_counter() - _STARTED
    if workload_name not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {workload_name!r}; known: {', '.join(WORKLOADS)}"
        )
    if seconds is None:
        seconds = spec["run_seconds"]
    from benchmarks.e2e import layers, measure

    workload = WORKLOADS[workload_name]
    if trace:
        outcome = layers.trace(workload, seed)
    else:
        reps = measure.run_reps(workload, seed, measure.rep_count(workload, seconds))
        outcome = measure.summarise(reps, import_s)
    result = record(spec, workload_name, seed, trace, outcome)
    print("\n".join(report(result)))
    if out:
        save(out, result)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="set file to merge the result into")
    args = parser.parse_args(argv)
    result = run_once(
        args.workload, args.seed, args.seconds, bool(args.trace), args.out
    )
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    pin_hash_seed(sys.argv)
    sys.exit(main())
