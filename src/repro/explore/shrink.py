"""Delta-debugging counterexample shrinker.

A violating schedule found by the explorer usually carries incidental
deviations: orderings flipped along the way to the one that matters,
drops that weren't needed.  The shrinker minimises the schedule while
preserving *some* violation (not necessarily the identical finding —
any oracle failure keeps a candidate), in three passes:

1. **ddmin** (Zeller's delta debugging) over the set of non-default
   deviations ``{position: value}`` — find a 1-minimal subset whose
   replay still violates;
2. **value lowering** — for each surviving deviation, try smaller
   alternative indices (earlier tie positions / deliver-instead-of-drop
   never survives this unless it matters);
3. **truncation** — cut the schedule at the violation point and strip
   trailing defaults.

Every candidate is checked by a full deterministic replay
(:func:`repro.explore.engine.run_schedule`), so the result is a real,
replayable counterexample, not a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.explore.engine import (
    ExploreOptions,
    RunOutcome,
    _normalise,
    run_schedule,
)

#: Replays a shrink may spend; it returns the smallest schedule found
#: when they run out.
MAX_RUNS = 200


@dataclass
class ShrinkResult:
    """Minimised schedule plus the replay that proves it still fails."""

    schedule: Tuple[int, ...]
    outcome: RunOutcome
    runs_used: int
    deviations_before: int
    deviations_after: int


def _deviations(schedule: Tuple[int, ...]) -> Dict[int, int]:
    return {pos: val for pos, val in enumerate(schedule) if val != 0}


def _to_schedule(deviations: Dict[int, int]) -> Tuple[int, ...]:
    if not deviations:
        return ()
    out = [0] * (max(deviations) + 1)
    for pos, val in deviations.items():
        out[pos] = val
    return tuple(out)


def shrink(
    scenario,
    schedule: Tuple[int, ...],
    options: ExploreOptions,
) -> Optional[ShrinkResult]:
    """Minimise ``schedule``; returns None if it doesn't reproduce."""
    runs = 0
    limit = max(len(schedule), options.max_decisions)

    def attempt(candidate: Tuple[int, ...]) -> Optional[RunOutcome]:
        nonlocal runs
        runs += 1
        outcome = run_schedule(scenario, candidate, options, limit=limit)
        return outcome if outcome.violation is not None else None

    schedule = _normalise(schedule)
    best_outcome = attempt(schedule)
    if best_outcome is None:
        return None
    before = len(_deviations(schedule))

    # Pass 1: ddmin over the deviation set.
    deviations = _deviations(schedule)
    items: List[Tuple[int, int]] = sorted(deviations.items())
    granularity = 2
    while len(items) >= 2 and runs < MAX_RUNS:
        chunk = max(1, len(items) // granularity)
        reduced = False
        for start in range(0, len(items), chunk):
            if runs >= MAX_RUNS:
                break
            complement = items[:start] + items[start + chunk :]
            outcome = attempt(_to_schedule(dict(complement)))
            if outcome is not None:
                items = complement
                best_outcome = outcome
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    # Single remaining deviation: is it needed at all?
    if len(items) == 1 and runs < MAX_RUNS:
        outcome = attempt(())
        if outcome is not None:
            items = []
            best_outcome = outcome

    # Pass 2: lower each surviving deviation's index.
    final: Dict[int, int] = dict(items)
    for pos in sorted(final):
        for lower in range(1, final[pos]):
            if runs >= MAX_RUNS:
                break
            candidate = dict(final)
            candidate[pos] = lower
            outcome = attempt(_to_schedule(candidate))
            if outcome is not None:
                final[pos] = lower
                best_outcome = outcome
                break

    # Pass 3: truncate at the violation point.
    minimal = _normalise(_to_schedule(final))
    if best_outcome.violation is not None:
        consumed = tuple(d.chosen for d in best_outcome.decisions)
        truncated = _normalise(consumed)
        if len(truncated) < len(minimal):
            outcome = attempt(truncated)
            if outcome is not None:
                minimal = truncated
                best_outcome = outcome

    return ShrinkResult(
        schedule=minimal,
        outcome=best_outcome,
        runs_used=runs,
        deviations_before=before,
        deviations_after=len(_deviations(minimal)),
    )
