"""The untraced run: K identical reps and the drift-robust estimator.

Two layers, for two kinds of host noise.  Bursts only ever add time,
so the wall figure is the composite ``sum over slices of the minimum
over reps of that slice's wall``: a burst has to hit the same slice in
every rep to get through.  Slow drift of the whole host moves every
slice of every rep together, so each rep's times are first divided by
the host slowdown measured during that rep
(:mod:`benchmarks.e2e.reference`): every gated timing is in
*calibrated* seconds.  The raw composite and the whole-rep median,
quartiles and minimum are reported beside them.
"""

from __future__ import annotations

import gc
import resource
import statistics
from typing import Dict, List

from benchmarks.e2e.observe import Observer
from benchmarks.e2e.reference import Reference
from benchmarks.e2e.workloads import Rep

#: Fewest reps a run makes, however short ``--seconds`` is: the
#: estimator needs two to take a minimum over.
MIN_REPS = 2

#: Results that must be identical on every rep of one (workload, seed).
EXACT_FIELDS = (
    "ops",
    "sim_events",
    "control_msgs",
    "sim_latency_p99_ms",
    "digest",
)


def rep_count(workload, seconds: float) -> int:
    """Reps that fill ``seconds`` at the workload's nominal rep cost.
    A count fixed by the arguments, not by how fast this host happens
    to be: the per-slice minimum gets better with more reps, so two
    commits must be given the same number."""
    return max(MIN_REPS, round(seconds / workload.nominal_rep_s))


def run_reps(workload, seed: int, count: int) -> List[Rep]:
    """``count`` identical reps, each from a fresh build, each stamped
    with the host slowdown measured while it ran."""
    reference = Reference()
    reps: List[Rep] = []
    reference.start()
    try:
        for _ in range(count):
            gc.collect()
            observer = Observer(reference=reference)
            rep = workload.rep(seed, observer)
            rep.slowdown = observer.slowdown
            rep.setup_slowdown = observer.setup_slowdown
            reps.append(rep)
    finally:
        reference.stop()
    return reps


def composite_wall(reps: List[Rep], calibrated: bool = True) -> float:
    """Sum over slices of the fastest rep's wall for that slice."""
    scaled = [
        [wall / (rep.slowdown if calibrated else 1.0) for wall in rep.slice_s]
        for rep in reps
    ]
    return sum(min(walls) for walls in zip(*scaled))


def quartiles(values: List[float]) -> List[float]:
    """[q1, median, q3]; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def check_reps(reps: List[Rep]) -> List[str]:
    """Why these reps are not one repeated experiment (empty if they are)."""
    notes = [note for rep in reps for note in rep.notes]
    first = reps[0]
    for index, rep in enumerate(reps[1:], start=2):
        if len(rep.slice_s) != len(first.slice_s):
            notes.append(
                f"rep {index}: {len(rep.slice_s)} slices, rep 1 had "
                f"{len(first.slice_s)}"
            )
        for name in EXACT_FIELDS:
            if getattr(rep, name) != getattr(first, name):
                notes.append(
                    f"rep {index}: {name} {getattr(rep, name)!r} != rep 1's "
                    f"{getattr(first, name)!r}"
                )
    return notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarise(reps: List[Rep], import_s: float) -> Dict[str, object]:
    """End-to-end metric values plus the rep statistics beside them."""
    first = reps[0]
    wall = composite_wall(reps)
    notes = check_reps(reps)
    return {
        "values": {
            "wall_s": wall,
            "events_per_s": first.sim_events / wall,
            "ops_per_s": first.ops / wall,
            "setup_s": import_s / first.setup_slowdown
            + statistics.median(rep.setup_s / rep.setup_slowdown for rep in reps),
            "peak_rss_mb": peak_rss_mb(),
            "sim_events": first.sim_events,
            "control_msgs": first.control_msgs,
        },
        "result_digest": first.digest,
        "attempted": sum(rep.ops for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "correct": not notes and all(rep.failed == 0 for rep in reps),
        "notes": notes,
        "reps": len(reps),
        "slices": len(first.slice_s),
        "wall_raw_s": composite_wall(reps, calibrated=False),
        "host_slowdown": [rep.slowdown for rep in reps],
        "rep_wall_s": [sum(rep.slice_s) / rep.slowdown for rep in reps],
        "rep_setup_s": [rep.setup_s / rep.setup_slowdown for rep in reps],
        "import_s": import_s,
    }
