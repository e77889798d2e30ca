"""Fault-directed backward search from invariant predicates.

Forward exploration (:func:`repro.explore.engine.explore`) enumerates
*every* schedule up to a depth bound, so its reach is limited to the
first handful of decision positions — the migration-race scenario's
interesting deviations start at position 8+, provably beyond a
depth-5 forward budget.  This module searches the other way, in the
style of Helmy & Estrin's fault-oriented test generation: start from
an *error state* (a :class:`~repro.explore.predicates.Predicate` goal
over domain state), invert the protocol transitions that could have
produced it, and chain the resulting preconditions back toward the
scenario's reachable initial condition.

Concretely:

* the **trigger set** is the predicate's own
  :attr:`~repro.explore.predicates.Predicate.triggers`: the message
  types whose loss or reordering can establish its goal.  Drop
  decisions exist only for types the scenario gates (the controller
  never offers a drop for an ungated type), so the intersection with
  the scenario's gate set happens at replay time; order decisions
  mentioning a trigger stay eligible either way.
* the **guided confirmation search** (:func:`backward_search`) walks
  pre-state chains by replaying forward (:func:`run_schedule`) out to
  the decision horizon :data:`LIMIT`, branching **only** at decisions
  that mention a trigger.  After each deviation the decision stream is
  re-derived from the replay itself (a dropped JOIN spawns
  retransmission decisions that did not exist before), which is the
  precondition chaining step: each new relevant decision is a
  transition whose inversion extends the current pre-state chain.
* every candidate chain is **confirmed by forward replay through the
  real simulator** — a counterexample is only ever reported from a
  run whose oracle actually fired on the targeted predicate, so there
  are no false alarms, and every report is a concrete schedule the
  shrinker and exporter already understand.

Because branching is restricted to the (small) trigger-relevant
decision set, confirmed violations routinely sit at schedule depths
2–4x past what the blind forward DFS can afford — the acceptance
demonstration in ``tests/test_backward.py`` reaches depth 14 on a
budget that forward search would exhaust below depth 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.explore.engine import (
    Counterexample,
    RunOutcome,
    _normalise,
    natural,
    run_schedule,
)
from repro.explore.predicates import PREDICATES, Predicate


#: The decision horizon every replay records: deliberately far past
#: any forward depth bound.
LIMIT = 64


@dataclass
class BackwardStats:
    """Search accounting surfaced in the CI report."""

    predicates_tried: int = 0
    candidates_tried: int = 0
    candidates_confirmed: int = 0
    candidates_rejected: int = 0
    max_depth_reached: int = 0
    runs: int = 0


@dataclass
class BackwardResult:
    """Outcome of one backward search over a scenario."""

    scenario: str
    seed: int
    stats: BackwardStats
    counterexamples: List[Counterexample] = field(default_factory=list)
    #: True when every predicate's pre-state chain space was drained
    #: within the run budget.
    exhausted: bool = True

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _relevant_decisions(
    outcome: RunOutcome, triggers: Sequence[str], lo: int
) -> List:
    """Decision points a search may perturb: at/after position ``lo``,
    expandable, and mentioning a trigger type.  Drop decisions come
    first — the goals arise chiefly through message loss, so the loss
    branches chain pre-states fastest — then order decisions."""
    drops, orders = [], []
    for decision in outcome.decisions:
        if decision.position < lo:
            continue
        if not decision.expandable:
            continue
        if not any(
            trigger in label
            for trigger in triggers
            for label in decision.labels
        ):
            continue
        (drops if decision.kind == "drop" else orders).append(decision)
    return drops + orders


def _vector(deviations: Dict[int, int]) -> Tuple[int, ...]:
    """Schedule vector realising ``position -> choice`` (defaults 0)."""
    if not deviations:
        return ()
    width = max(deviations) + 1
    return tuple(deviations.get(index, 0) for index in range(width))


def check_bounds(**bounds: int) -> None:
    """Raise ``ValueError`` on a :func:`backward_search` bound that is
    not an int >= 0: below 0 the search would never reach the stop
    that bound sets."""
    for name, value in bounds.items():
        if not natural(value):
            raise ValueError(f"{name} must be an int >= 0, got {value!r}")


def backward_search(
    scenario,
    predicates: Optional[Sequence[Predicate]] = None,
    *,
    max_deviations: int = 3,
    budget: int = 600,
    seed: int = 0,
    stop_on_first: bool = False,
) -> BackwardResult:
    """Run the backward search for ``predicates`` on ``scenario``.

    ``budget`` caps total forward-confirmation replays across all
    predicates, each recording decisions out to :data:`LIMIT`;
    ``seed`` deterministically permutes sibling expansion order, so
    distinct sub-seeds (one per nightly cell) diversify which chains
    are explored first without breaking replayability.  Bounds are
    checked first (:func:`check_bounds`).
    """
    from repro.explore.scenarios import scenario_options

    check_bounds(max_deviations=max_deviations, budget=budget)

    chosen = list(predicates) if predicates is not None else [
        PREDICATES[name] for name in sorted(PREDICATES)
    ]
    base = scenario_options(scenario, max_decisions=0)
    # The search realises pre-states chiefly through message loss: give
    # the replay enough drop budget for every deviation to be a drop.
    base = replace(base, drop_budget=max(base.drop_budget, max_deviations))
    stats = BackwardStats()
    result = BackwardResult(scenario=scenario.name, seed=seed, stats=stats)
    rng = random.Random(seed)
    seen_schedules: set = set()

    for predicate in chosen:
        stats.predicates_tried += 1

        def chain(deviations: Dict[int, int], lo: int, left: int) -> None:
            """Confirm the current pre-state chain by forward replay,
            then extend it one inverted transition deeper."""
            if stats.runs >= budget:
                result.exhausted = False
                return
            if stop_on_first and result.counterexamples:
                return
            schedule = _vector(deviations)
            outcome = run_schedule(scenario, schedule, base, limit=LIMIT)
            stats.runs += 1
            stats.candidates_tried += 1
            depth = len(_normalise(outcome.chosen()))
            stats.max_depth_reached = max(stats.max_depth_reached, depth)
            if outcome.violation is not None:
                key = _normalise(outcome.chosen())
                if predicate.matches(outcome.violation.findings):
                    stats.candidates_confirmed += 1
                    if key not in seen_schedules:
                        seen_schedules.add(key)
                        result.counterexamples.append(
                            Counterexample(
                                scenario=scenario.name,
                                schedule=key,
                                outcome=outcome,
                                seed=seed,
                                predicate=predicate.name,
                                source="backward",
                            )
                        )
                else:
                    # A real violation, but not the targeted goal: the
                    # chain is rejected for this predicate (another
                    # predicate's search owns it).
                    stats.candidates_rejected += 1
                return
            if left == 0:
                stats.candidates_rejected += 1
                return
            candidates = _relevant_decisions(outcome, predicate.triggers, lo)
            if not candidates:
                stats.candidates_rejected += 1
                return
            # Deterministic seed-driven permutation within each kind
            # bucket (drops stay ahead of orders).
            drops = [d for d in candidates if d.kind == "drop"]
            orders = [d for d in candidates if d.kind != "drop"]
            rng.shuffle(drops)
            rng.shuffle(orders)
            for decision in drops + orders:
                for alternative in range(1, decision.alternatives):
                    if stats.runs >= budget:
                        result.exhausted = False
                        return
                    extended = dict(deviations)
                    extended[decision.position] = alternative
                    chain(extended, decision.position + 1, left - 1)

        chain({}, 0, max_deviations)
        if stop_on_first and result.counterexamples:
            break

    return result
