"""Judge set B against set A by the bounds in ``BENCHMARK.json``.

A set file is what ``run.py --out`` / ``python -m benchmarks.e2e set``
writes: one record per ``<workload>:e2e`` and ``<workload>:layers``.
Verdicts, one line per (workload, metric):

* ``equal`` / ``CHANGED`` — metrics that repeat exactly for one seed
  (simulated counts, the result digest, GC collection counts, profiled
  call counts) must be identical;
* ``unchanged`` / ``improved`` / ``REGRESSED`` — bounded metrics, by
  the relative change in the worse direction;
* ``unresolved`` — a timing whose rep-to-rep spread (interquartile
  range over median, on either side) is wider than its bound, unless
  every rep of B beats every rep of A or the reverse;
* ``info`` — per-layer timings and shares, which carry no bound.

Exit code 1 if anything CHANGED or REGRESSED.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.measure import quartiles

#: End-to-end metrics that repeat exactly for one (workload, seed).
EXACT_E2E = ("sim_events", "control_msgs")

#: Metrics derived from the composite wall: their spread is the reps'.
TIMED = ("wall_s", "events_per_s", "ops_per_s")

#: Per-layer metrics that are host timings, beside every ``host.*`` and
#: ``*.self_share``; all other per-layer metrics are counts and
#: simulated quantities that repeat exactly.
TIMED_LAYER = (
    "harness.cell_ms",
    "explore.run_ms",
    "python.gc.pause_s",
    "python.gc.time_share",
)


def is_exact_layer_metric(name: str) -> bool:
    return not (
        name.endswith(".self_share") or name.startswith("host.") or name in TIMED_LAYER
    )


def _spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _worse_by(a: float, b: float, better: str) -> float:
    """Relative change from ``a`` to ``b``, positive when ``b`` is worse."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def judge_bounded(
    a: Dict[str, object], b: Dict[str, object], metric: Dict[str, object]
) -> Tuple[str, str]:
    name, bound = metric["name"], metric["bound"]
    worse = _worse_by(
        a["metrics"][name]["value"], b["metrics"][name]["value"], metric["better"]
    )
    detail = f"{worse:+.2%} worse (bound {bound:.0%})"
    if name in TIMED or name == "setup_s":
        key = "rep_setup_s" if name == "setup_s" else "rep_wall_s"
        reps_a, reps_b = a[key], b[key]
        spread = max(_spread(reps_a), _spread(reps_b))
        disjoint = max(reps_b) < min(reps_a) or max(reps_a) < min(reps_b)
        if spread > bound and not disjoint:
            return "unresolved", f"{detail}; rep spread {spread:.2%}"
    if worse > bound:
        return "REGRESSED", detail
    return ("improved" if worse < -bound else "unchanged"), detail


def compare(
    set_a: Dict[str, dict], set_b: Dict[str, dict], spec: Dict[str, object]
) -> Tuple[List[str], bool]:
    """(report lines, ok) for every record the two sets share."""
    lines: List[str] = []
    ok = True

    def emit(key: str, name: str, verdict: str, detail: str) -> None:
        nonlocal ok
        ok = ok and verdict not in ("CHANGED", "REGRESSED")
        lines.append(f"{key:<28}{name:<38}{verdict:<11}{detail}")

    def exact(key: str, name: str, left: object, right: object) -> None:
        # Attributed call counts are float sums whose last digit
        # depends on dict order, which differs between processes.
        if isinstance(left, float) and isinstance(right, float):
            same = math.isclose(left, right, rel_tol=1e-9)
        else:
            same = left == right
        emit(key, name, "equal" if same else "CHANGED", f"{left} -> {right}")

    for key in sorted(set(set_a) | set(set_b)):
        a: Optional[dict] = set_a.get(key)
        b: Optional[dict] = set_b.get(key)
        if a is None or b is None:
            lines.append(f"{key:<28}only in {'B' if a is None else 'A'}")
            continue
        same_seed = a["seed"] == b["seed"]
        if not same_seed:
            lines.append(
                f"{key:<28}seeds differ ({a['seed']} vs {b['seed']}): exact "
                f"metrics not compared"
            )
        for side, run in (("A", a), ("B", b)):
            if not run["correct"]:
                emit(key, f"outputs of {side}", "CHANGED", "; ".join(run["notes"][:3]))
        if same_seed:
            exact(key, "result_digest", a["result_digest"], b["result_digest"])
        if key.endswith(":e2e"):
            for metric in spec["end_to_end"]:
                name = metric["name"]
                if name in EXACT_E2E:
                    if same_seed:
                        exact(
                            key,
                            name,
                            a["metrics"][name]["value"],
                            b["metrics"][name]["value"],
                        )
                    continue
                emit(key, name, *judge_bounded(a, b, metric))
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            left = a["metrics"][name]["value"]
            right = b["metrics"][name]["value"]
            if is_exact_layer_metric(name):
                if same_seed:
                    exact(key, name, left, right)
            else:
                worse = _worse_by(left, right, metric["better"])
                emit(key, name, "info", f"{left:.6g} -> {right:.6g} ({worse:+.2%})")
    return lines, ok


def main(path_a: str, path_b: str, spec: Dict[str, object]) -> int:
    with open(path_a) as handle:
        set_a = json.load(handle)
    with open(path_b) as handle:
        set_b = json.load(handle)
    lines, ok = compare(set_a, set_b, spec)
    print("\n".join(lines))
    print("agree within bounds" if ok else "DISAGREE")
    return 0 if ok else 1
