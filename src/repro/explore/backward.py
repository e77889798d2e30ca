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

* the **inverse-rule catalogue** (:data:`INVERSE_RULES`) documents,
  per predicate, which forward transitions in
  :mod:`repro.core.router` can establish/destroy the goal condition
  and which message deviations (loss, reordering) realise each rule's
  precondition.  The union of a predicate's rule deviations is its
  *trigger set*.
* **plan derivation** (:func:`derive_plan`) intersects a predicate's
  trigger set with the scenario's gated message types, yielding the
  decision points the search may perturb.
* the **guided confirmation search** (:func:`backward_search`) walks
  pre-state chains by replaying forward (:func:`run_schedule`) with a
  *high* decision limit but branching **only** at plan-relevant
  decisions.  After each deviation the decision stream is re-derived
  from the replay itself (a dropped JOIN spawns retransmission
  decisions that did not exist before), which is the precondition
  chaining step: each new relevant decision is a transition whose
  inversion extends the current pre-state chain.
* every candidate chain is **confirmed by forward replay through the
  real simulator** — a counterexample is only ever reported from a
  run whose oracle actually fired on the targeted predicate, so there
  are no false alarms, and every report is a concrete schedule the
  shrinker and exporter already understand.

Because branching is restricted to the (small) plan-relevant decision
set, confirmed violations routinely sit at schedule depths 2–4x past
what the blind forward DFS can afford — the acceptance demonstration
in ``tests/test_backward.py`` reaches depth 14 on a budget that
forward search would exhaust below depth 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.explore.engine import (
    Counterexample,
    ExploreOptions,
    RunOutcome,
    _normalise,
    natural,
    run_schedule,
)
from repro.explore.predicates import PREDICATES, Predicate


@dataclass(frozen=True)
class InverseRule:
    """One inverted transition: how a predicate's goal can arise.

    ``transition`` names the forward handler in
    :mod:`repro.core.router`; ``precondition`` is the pre-state the
    inversion yields; ``deviations`` are the message types whose
    loss/reordering realises that pre-state during replay.
    """

    predicate: str
    transition: str
    precondition: str
    deviations: Tuple[str, ...]


#: The inverse-transition catalogue.  Each rule answers "which forward
#: step, had it gone differently, leaves the goal state?" for one
#: handler in ``repro.core.router`` — the backward chaining works over
#: these documented inversions rather than raw state guessing.
INVERSE_RULES: Tuple[InverseRule, ...] = (
    # -- member-stranded ---------------------------------------------------
    InverseRule(
        predicate="member-stranded",
        transition="_recv_join_ack",
        precondition=(
            "the attaching router never installed its parent: the "
            "JOIN_ACK that would have completed the member's join was "
            "not delivered"
        ),
        deviations=("JOIN_ACK",),
    ),
    InverseRule(
        predicate="member-stranded",
        transition="_forward_join / _retransmit_join",
        precondition=(
            "no join ever reached an on-tree router: the hop-by-hop "
            "JOIN_REQUEST chain (including its §9 retransmissions) "
            "was lost until the pending-join expiry fired"
        ),
        deviations=("JOIN_REQUEST",),
    ),
    InverseRule(
        predicate="member-stranded",
        transition="_recv_flush",
        precondition=(
            "the member's branch was flushed and the §6.1 re-join the "
            "flush mandates was itself defeated"
        ),
        deviations=("FLUSH_TREE", "JOIN_REQUEST"),
    ),
    # -- forwarding-loop ---------------------------------------------------
    InverseRule(
        predicate="forwarding-loop",
        transition="_terminate_join_on_tree / _recv_join_ack",
        precondition=(
            "a join terminated on a descendant of its own origin and "
            "the ACK chain welded the cycle: the orderings that let "
            "the origin's subtree state survive until termination"
        ),
        deviations=("JOIN_REQUEST", "JOIN_ACK"),
    ),
    # -- non-core-root -----------------------------------------------------
    InverseRule(
        predicate="non-core-root",
        transition="_recv_quit_request / _recv_quit_ack",
        precondition=(
            "an interior edge was severed (QUIT applied upstream) "
            "while the downstream kept children, and the orphan's "
            "rejoin never completed"
        ),
        deviations=("QUIT_REQUEST", "QUIT_ACK", "JOIN_REQUEST", "JOIN_ACK"),
    ),
    InverseRule(
        predicate="non-core-root",
        transition="_recv_flush / _join_attempt_failed",
        precondition=(
            "a flushed subtree root exhausted its §6.1 alternate-core "
            "chain without any join completing"
        ),
        deviations=("FLUSH_TREE", "JOIN_REQUEST", "JOIN_ACK"),
    ),
    # -- packet-never-arrives ----------------------------------------------
    InverseRule(
        predicate="packet-never-arrives",
        transition="_recv_join_ack / _recv_quit_request",
        precondition=(
            "the downstream's JOIN_ACK installed its parent pointer "
            "while a crossing QUIT tore the matching child pointer "
            "out of the upstream: the JOIN side converges, the data "
            "path down the tree does not"
        ),
        deviations=("JOIN_ACK", "QUIT_REQUEST"),
    ),
    InverseRule(
        predicate="packet-never-arrives",
        transition="_recv_quit_ack",
        precondition=(
            "a QUIT_ACK confirmed a child removal the quitter had "
            "already abandoned (§5.3 quit-abort re-join), leaving the "
            "re-joined branch absent from the upstream's child list"
        ),
        deviations=("QUIT_REQUEST", "QUIT_ACK"),
    ),
    # -- conservation-broken -----------------------------------------------
    InverseRule(
        predicate="conservation-broken",
        transition="_arm_quit_retry / _recv_quit_ack",
        precondition=(
            "a quit retry chain was left without a live timer: the "
            "QUIT_ACK arrived in a state where the retry bookkeeping "
            "was already torn down"
        ),
        deviations=("QUIT_REQUEST", "QUIT_ACK"),
    ),
    InverseRule(
        predicate="conservation-broken",
        transition="_maybe_join / _recv_join_nack",
        precondition=(
            "transient join state survived its driving timers: the "
            "JOIN/NACK interleaving that strands a pending entry"
        ),
        deviations=("JOIN_REQUEST", "JOIN_ACK", "JOIN_NACK"),
    ),
)


@dataclass(frozen=True)
class Plan:
    """A derived search plan: which decisions may be perturbed while
    chaining pre-states for ``predicate`` on ``scenario``."""

    scenario: str
    predicate: str
    rules: Tuple[InverseRule, ...]
    #: Message types whose decision points the search branches on —
    #: the union of the rules' deviations, restricted to types the
    #: scenario actually gates (plus order decisions mentioning them).
    triggers: Tuple[str, ...]


def rules_for(predicate: Predicate) -> Tuple[InverseRule, ...]:
    return tuple(
        rule for rule in INVERSE_RULES if rule.predicate == predicate.name
    )


def derive_plan(scenario, predicate: Predicate) -> Plan:
    """Backward step 1: invert the predicate into a deviation plan."""
    rules = rules_for(predicate)
    # The plan perturbs the types the predicate's inverse rules name.
    # Drop decisions only exist for types the scenario gates (the
    # controller never offers a drop for an ungated type), so the
    # intersection with the scenario's gate set happens for free at
    # replay time; order decisions mentioning a trigger stay eligible
    # either way.
    triggers = tuple(
        sorted(
            {deviation for rule in rules for deviation in rule.deviations}
            & set(predicate.triggers)
        )
    )
    return Plan(
        scenario=scenario.name,
        predicate=predicate.name,
        rules=rules,
        triggers=triggers,
    )


@dataclass
class BackwardStats:
    """Search accounting surfaced in the CI report."""

    predicates_tried: int = 0
    plans_derived: int = 0
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
    #: True when every plan's pre-state chain space was drained within
    #: the run budget.
    exhausted: bool = True

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _relevant_decisions(
    outcome: RunOutcome, triggers: Sequence[str], lo: int, limit: int
) -> List:
    """Decision points a plan may perturb: at/after position ``lo``,
    expandable, and mentioning a trigger type.  Drop decisions come
    first — the inverse rules are primarily about message loss, so the
    loss branches chain pre-states fastest — then order decisions."""
    drops, orders = [], []
    for decision in outcome.decisions:
        if decision.position < lo or decision.position >= limit:
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


#: :func:`backward_search` bound -> its least value: below it the
#: search would never reach the stop that bound sets.
_LEAST_BOUND = {"max_deviations": 0, "budget": 0, "limit": 1}


def check_bounds(**bounds: int) -> None:
    """Raise ``ValueError`` on a :func:`backward_search` bound that is
    not an int or is below its least value (``limit`` >= 1, the rest
    >= 0)."""
    for name, value in bounds.items():
        least = _LEAST_BOUND[name]
        if not natural(value) or value < least:
            raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def backward_search(
    scenario,
    predicates: Optional[Sequence[Predicate]] = None,
    *,
    options: Optional[ExploreOptions] = None,
    max_deviations: int = 3,
    budget: int = 600,
    limit: int = 64,
    seed: int = 0,
    stop_on_first: bool = False,
) -> BackwardResult:
    """Run the backward search for ``predicates`` on ``scenario``.

    ``budget`` caps total forward-confirmation replays across all
    predicates; ``limit`` is the decision horizon each replay records
    (deliberately far past any forward depth bound); ``seed``
    deterministically permutes sibling expansion order, so distinct
    sub-seeds (one per nightly cell) diversify which chains are
    explored first without breaking replayability.  Bounds are checked
    first (:func:`check_bounds`).
    """
    from repro.explore.scenarios import scenario_options

    check_bounds(max_deviations=max_deviations, budget=budget, limit=limit)

    chosen = list(predicates) if predicates is not None else [
        PREDICATES[name] for name in sorted(PREDICATES)
    ]
    base = options or scenario_options(scenario, max_decisions=0)
    # The plan realises pre-states chiefly through message loss: give
    # the replay enough drop budget for every deviation to be a drop.
    base = replace(base, drop_budget=max(base.drop_budget, max_deviations))
    stats = BackwardStats()
    result = BackwardResult(scenario=scenario.name, seed=seed, stats=stats)
    rng = random.Random(seed)
    seen_schedules: set = set()

    for predicate in chosen:
        stats.predicates_tried += 1
        plan = derive_plan(scenario, predicate)
        if not plan.triggers:
            continue
        stats.plans_derived += 1

        def chain(deviations: Dict[int, int], lo: int, left: int) -> None:
            """Confirm the current pre-state chain by forward replay,
            then extend it one inverted transition deeper."""
            if stats.runs >= budget:
                result.exhausted = False
                return
            if stop_on_first and result.counterexamples:
                return
            schedule = _vector(deviations)
            outcome = run_schedule(scenario, schedule, base, limit=limit)
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
            candidates = _relevant_decisions(outcome, plan.triggers, lo, limit)
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
