"""Bounded systematic state-space exploration (the ISSUE-3 tentpole).

The explorer drives the deterministic simulator through *all*
interleavings of a controllable choice set, up to a configurable
depth, in the style of Helmy & Estrin's systematic multicast protocol
testing and VeriSoft-style stateless search:

* a **schedule** is a sequence of small integers, one per *decision
  point* (a same-instant event tie, an eligible message's
  deliver/drop gate, a fault placement); ``0`` is always the default
  (FIFO order, deliver, no fault);
* a **run** replays the scenario from scratch, consuming the schedule
  prefix and taking defaults beyond it, while recording every
  decision point it passes and the alternatives available there;
* the **search** expands recorded decision points depth-first,
  bounded by ``max_decisions`` positions, iterating the bound upward
  (iterative deepening) so shallow counterexamples are found first;
* **state-hash pruning** cuts runs that reach a state fingerprint
  (the scenario leg's, e.g.
  :func:`repro.core.fingerprint.domain_fingerprint`) already seen
  at the same or shallower depth.

The bound does not change what a run simulates — beyond it every
decision takes its default — only where the oracle looks and which
decisions are recorded.  A search therefore simulates each schedule
once, at full depth, and reads every shallower pass's outcome from
that run (:func:`_at_limit`); only a run that violates is simulated
again at the pass's own bound, so a counterexample is exactly what
that pass reports.

The scenario's leg — a row of :data:`repro.harness.campaign.LEGS`,
the one protocol table cells run too — holds the oracle, consulted
after every explored transition (hard invariants) and once the
schedule has run out and the simulation settled (for CBT,
:mod:`repro.core.audit`'s full invariant sweep + convergence).
Replay is exact because the simulator itself is deterministic: the
same scenario + schedule always reproduces the same run.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.fingerprint import DEFAULT_QUIET_TYPES
from repro.netsim.engine import cell, collector_paused
from repro.netsim.faults import FaultSchedule
from repro.telemetry import payload_label

#: Gate-eligible CBT control message types: the tree-building and
#: teardown handshakes whose loss the §6 machinery must survive.
#: Keepalives (ECHO_*) and HELLOs are excluded to bound the space —
#: their loss is already covered by the chaos campaigns.
DEFAULT_GATE_TYPES = (
    "JOIN_REQUEST",
    "JOIN_ACK",
    "JOIN_NACK",
    "QUIT_REQUEST",
    "QUIT_ACK",
    "FLUSH_TREE",
)

def natural(value: object) -> bool:
    """An int ``>= 0`` (``True`` is not one): what every count bound of
    a search, and every schedule entry, must be."""
    return type(value) is int and value >= 0


@dataclass(frozen=True)
class ExploreOptions:
    """Bounds and knobs of one exploration."""

    #: Number of decision positions eligible for branching; beyond
    #: this the run stays on defaults (the depth bound).
    max_decisions: int = 4
    #: Cap on alternatives considered at any single decision point.
    max_alternatives: int = 4
    #: Maximum explored message drops per run.
    drop_budget: int = 1
    #: CBT control message types eligible for the deliver/drop gate.
    gate_types: Tuple[str, ...] = DEFAULT_GATE_TYPES
    #: Delivery types whose ordering is never worth branching: tie
    #: groups containing only these (plus opaque timers) resolve FIFO
    #: without consuming a decision position.  Without this filter the
    #: periodic keepalive storm (every router HELLOs at the same tick)
    #: floods the decision budget with meaningless orderings.
    quiet_types: Tuple[str, ...] = DEFAULT_QUIET_TYPES
    #: Runaway guard on total runs (``ExploreStats.runs``) across the
    #: whole exploration.
    max_runs: int = 20_000

    def __post_init__(self) -> None:
        # A negative bound would silently disable the stop it sets.
        for option in fields(self):
            value = getattr(self, option.name)
            if type(option.default) is int and not natural(value):
                raise ValueError(
                    f"{option.name} must be a non-negative int, got {value!r}"
                )

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["gate_types"] = list(self.gate_types)
        data["quiet_types"] = list(self.quiet_types)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExploreOptions":
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in data.items() if k in known}
        for key in ("gate_types", "quiet_types"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass
class Decision:
    """One decision point passed during a run."""

    position: int
    kind: str  # "order" | "drop" | "fault"
    time: float
    chosen: int
    alternatives: int
    labels: Tuple[str, ...]
    expandable: bool

    def describe(self) -> str:
        label = self.labels[self.chosen] if self.chosen < len(self.labels) else "?"
        return (
            f"#{self.position} t={self.time:.3f} {self.kind}: {label} "
            f"[{self.chosen + 1}/{self.alternatives}]"
        )


@dataclass
class Violation:
    """An oracle failure observed during or after a run."""

    stage: str  # "transition" | "final"
    time: float
    findings: List[str]
    #: Scenario the run belonged to — threaded through so narratives
    #: stay unambiguous when violations from many searches are read together.
    scenario: str = ""

    def describe(self) -> str:
        where = f" [{self.scenario}]" if self.scenario else ""
        head = f"{self.stage} violation{where} at t={self.time:.3f}:"
        return "\n".join([head] + [f"  {line}" for line in self.findings])


@dataclass
class RunOutcome:
    """Everything one scheduled run produced."""

    schedule: Tuple[int, ...]
    decisions: List[Decision]
    violation: Optional[Violation]
    fingerprints: List[str]
    narrative: List[str]
    #: Decision points resolved to defaults beyond the depth bound.
    suppressed_decisions: int = 0
    pruned: bool = False
    #: ``(position, time)`` of each entry in ``fingerprints``: the
    #: decisions taken and the simulated time when the state was read.
    #: A clean run's last entry is the window-end observation.
    observed_at: List[Tuple[int, float]] = field(default_factory=list)

    def chosen(self) -> Tuple[int, ...]:
        return tuple(decision.chosen for decision in self.decisions)


@dataclass
class ExploreStats:
    """Counts reported by an exploration (all sim-derived, no wall clock)."""

    #: Schedule evaluations: one per schedule per deepening pass.
    runs: int = 0
    #: Simulations actually run (each schedule once, plus one per
    #: evaluation of a schedule whose full-depth run violates).
    simulations: int = 0
    states_visited: int = 0
    states_pruned: int = 0
    decisions_expanded: int = 0
    violations_seen: int = 0
    depth_reached: int = 0


@dataclass
class Counterexample:
    """A violating schedule, possibly later minimised by the shrinker."""

    scenario: str
    schedule: Tuple[int, ...]
    outcome: RunOutcome
    #: Seed of the search that found it (None = the unseeded forward
    #: search).
    seed: Optional[int] = None
    #: Goal predicate a backward search confirmed ("" = forward find).
    predicate: str = ""
    #: Which engine produced it: "forward" | "backward".
    source: str = "forward"

    def summary(self) -> str:
        what = self.outcome.violation.describe() if self.outcome.violation else "?"
        provenance = f"scenario={self.scenario} source={self.source}"
        if self.seed is not None:
            provenance += f" seed={self.seed}"
        if self.predicate:
            provenance += f" predicate={self.predicate}"
        return f"{provenance}\nschedule={list(self.schedule)}\n{what}"


@dataclass
class ExploreResult:
    """Outcome of a whole exploration."""

    scenario: str
    options: ExploreOptions
    stats: ExploreStats
    counterexample: Optional[Counterexample]
    #: True when the bounded space was fully enumerated without a
    #: violation (the search frontier drained at every depth).
    exhausted: bool
    #: Stable digest of the visited-state set (re-running an identical
    #: exploration must reproduce it bit for bit).
    visited_digest: str

    @property
    def ok(self) -> bool:
        return self.counterexample is None


class _ViolationSignal(Exception):
    """Raised inside the event loop to abort a violating run."""

    def __init__(self, violation: Violation) -> None:
        self.violation = violation
        super().__init__(violation.describe())


class _Controller:
    """Resolves decision points for one run: consumes the prescribed
    schedule, records alternatives, checks the leg's transition oracle,
    and prunes against the shared visited-state map."""

    def __init__(
        self,
        world,
        options: ExploreOptions,
        schedule: Sequence[int],
        limit: int,
        visited: Optional[Dict[str, int]],
        check_loops: bool,
        leg,
    ) -> None:
        self.world = world
        self.options = options
        self.schedule = tuple(schedule)
        self.limit = limit
        self.visited = visited
        self.check_loops = check_loops
        self.leg = leg
        self.decisions: List[Decision] = []
        self.fingerprints: List[str] = []
        self.observed_at: List[Tuple[int, float]] = []
        self.narrative: List[str] = []
        self.suppressed = 0
        self.drops_used = 0
        self.frozen = False
        self.pruned = False

    # -- oracle + pruning ----------------------------------------------

    def observe_state(self, final: bool = False) -> None:
        """Check the transition oracle and fingerprint the state the
        previous transition produced (also called, with ``final``, at
        window end — where reaching a known state cuts nothing, so it
        is recorded but not counted as a prune).  :func:`_at_limit`
        replays this rule over a recorded run — keep the two in step."""
        domain = self.world.domain
        findings = self.leg.transition(domain, self.check_loops)
        now = domain.network.scheduler.now
        if findings:
            raise _ViolationSignal(
                Violation(
                    stage="transition",
                    time=now,
                    findings=[str(finding) for finding in findings],
                )
            )
        fingerprint = self.leg.fingerprint(domain)
        depth = len(self.decisions)
        self.fingerprints.append(fingerprint)
        self.observed_at.append((depth, now))
        if self.visited is None or self.frozen:
            return
        if depth < len(self.schedule):
            # Still replaying the prescribed prefix: the parent run
            # already observed (and recorded) these states — stateless
            # replay revisits them by construction, not redundantly.
            return
        seen_at = self.visited.get(fingerprint)
        if seen_at is not None and seen_at <= depth:
            if not final:
                self.frozen = True
                self.pruned = True
                self.narrative.append(_pruned_line(now, fingerprint, seen_at))
        elif seen_at is None or depth < seen_at:
            self.visited[fingerprint] = depth

    # -- the decision core ---------------------------------------------

    def _decide(
        self, kind: str, time: float, labels: Sequence[str], observe: bool = True
    ) -> int:
        position = len(self.decisions)
        if position >= self.limit:
            self.suppressed += 1
            return 0
        if observe:
            self.observe_state()
        alternatives = min(len(labels), self.options.max_alternatives)
        prescribed = (
            self.schedule[position] if position < len(self.schedule) else 0
        )
        chosen = prescribed if 0 <= prescribed < alternatives else 0
        decision = Decision(
            position=position,
            kind=kind,
            time=time,
            chosen=chosen,
            alternatives=alternatives,
            labels=tuple(labels[:alternatives]),
            expandable=not self.frozen and alternatives > 1,
        )
        self.decisions.append(decision)
        self.narrative.append(decision.describe())
        return chosen

    # -- scheduler tie resolution ---------------------------------------

    def scheduler_choice(
        self, time: float, tags: List[Optional[Tuple]]
    ) -> int:
        tagged = [tag for tag in tags if tag is not None]
        interesting = [
            tag
            for tag in tagged
            if tag[0] != "deliver" or tag[1] not in self.options.quiet_types
        ]
        if not interesting:
            return 0
        if (
            len(tagged) == len(tags)
            and all(tag[0] == "deliver" for tag in tagged)
            and len({tag[-1] for tag in tagged}) == 1
        ):
            return 0  # broadcast fan-out of one transmission (same uid)
        labels = [_tag_label(tag) for tag in tags]
        return self._decide("order", time, labels)

    # -- link deliver/drop gate ------------------------------------------

    def gate(self, link, sender, datagram) -> bool:
        label = payload_label(datagram)
        if label not in self.options.gate_types:
            return True
        if self.drops_used >= self.options.drop_budget:
            return True
        now = link.scheduler.now
        # observe=False: the gate fires synchronously inside the
        # sender's event callback, where protocol state is legitimately
        # half-built (e.g. a quit recorded but its retry timer not yet
        # armed); only between-event points are consistent to audit.
        choice = self._decide(
            "drop",
            now,
            (
                f"deliver {label} on {link.name}",
                f"drop {label} on {link.name}",
            ),
            observe=False,
        )
        if choice == 1:
            self.drops_used += 1
            return False
        return True

    # -- fault placement --------------------------------------------------

    def choose_fault(self, faults: Sequence, start: float) -> None:
        """Offer ``faults`` (``FaultEvent`` s, ``at`` an offset from the
        window ``start``) as one decision; 0 places none."""
        if not faults:
            return
        network = self.world.network
        placed = [replace(event, at=start + event.at) for event in faults]
        labels = ["no fault"] + [event.actions(network)[0][1] for event in placed]
        choice = self._decide("fault", start, labels)
        if choice > 0:
            # The schedule tags the pending actions, so they show in the
            # in-flight fingerprint: else the explorer would prune the
            # fault subtree as identical to the no-fault run before the
            # fault ever fires (its effect is delayed).
            FaultSchedule([placed[choice - 1]]).apply(network)


def _pruned_line(now: float, fingerprint: str, seen_at: int) -> str:
    return (
        f"t={now:.3f} pruned: state {fingerprint} already "
        f"expanded at depth {seen_at}"
    )


def _tag_label(tag: Optional[Tuple]) -> str:
    if tag is None:
        return "timer"
    if tag[0] == "deliver":
        return f"deliver {tag[1]} {tag[2]}->{tag[3]}"
    return ":".join(str(part) for part in tag[:-1])


def run_schedule(
    scenario,
    schedule: Sequence[int],
    options: ExploreOptions,
    limit: Optional[int] = None,
    visited: Optional[Dict[str, int]] = None,
) -> RunOutcome:
    """Execute one scenario run under ``schedule``; see module docs."""
    if limit is None:
        limit = max(options.max_decisions, len(schedule))
    with cell(scenario.build) as world:
        network = world.network
        scheduler = network.scheduler
        leg = scenario.row
        controller = _Controller(
            world,
            options,
            schedule,
            limit=limit,
            visited=visited,
            check_loops=scenario.check_loops,
            leg=leg,
        )
        scheduler.choice_hook = controller.scheduler_choice
        for link in network.links.values():
            link.gate = controller.gate
        start = scheduler.now
        violation: Optional[Violation] = None
        try:
            controller.choose_fault(scenario.faults, start)
            for offset, action in world.actions:
                scheduler.call_at(start + offset, action)
            network.run(until=start + scenario.window)
            controller.observe_state(final=True)
        except _ViolationSignal as signal:
            violation = signal.violation
        finally:
            scheduler.choice_hook = None
            for link in network.links.values():
                link.gate = None
        if violation is None:
            network.run(until=start + scenario.window + scenario.settle)
            findings = [str(finding) for finding in leg.convergence(world)]
            if findings:
                violation = Violation(
                    stage="final", time=scheduler.now, findings=findings
                )
        if violation is not None:
            violation.scenario = scenario.name
            controller.narrative.append(violation.describe())
        return RunOutcome(
            schedule=tuple(schedule),
            decisions=controller.decisions,
            violation=violation,
            fingerprints=controller.fingerprints,
            narrative=controller.narrative,
            suppressed_decisions=controller.suppressed,
            pruned=controller.pruned,
            observed_at=controller.observed_at,
        )


def _at_limit(full: RunOutcome, limit: int, visited: Dict[str, int]) -> RunOutcome:
    """What ``run_schedule(..., limit=limit, visited=visited)`` reports,
    read from ``full``: the same schedule's clean run at a bound of at
    least ``limit`` with no visited map (``len(full.schedule) <= limit``).

    Below the bound the two runs take the same decisions; beyond it
    both take defaults, so they simulate the same events.  The shallow
    run keeps the first ``limit`` decisions, reads the state only at
    those positions and at window end, and applies
    :meth:`_Controller.observe_state`'s prune rule there — updating
    ``visited`` as it would.
    """
    *inner, (end, end_time) = full.observed_at
    points = [
        (position, now, fingerprint, False)
        for (position, now), fingerprint in zip(inner, full.fingerprints)
        if position < limit
    ]
    points.append((min(end, limit), end_time, full.fingerprints[-1], True))
    fingerprints: List[str] = []
    observed_at: List[Tuple[int, float]] = []
    prune: Optional[Tuple[int, str]] = None
    for position, now, fingerprint, final in points:
        fingerprints.append(fingerprint)
        observed_at.append((position, now))
        if prune is not None or position < len(full.schedule):
            continue
        seen_at = visited.get(fingerprint)
        if seen_at is not None and seen_at <= position:
            if not final:
                prune = (position, _pruned_line(now, fingerprint, seen_at))
        elif seen_at is None or position < seen_at:
            visited[fingerprint] = position
    decisions = full.decisions[:limit]
    narrative = [decision.describe() for decision in decisions]
    if prune is not None:
        frozen_from, line = prune
        decisions = decisions[:frozen_from] + [
            replace(decision, expandable=False) for decision in decisions[frozen_from:]
        ]
        narrative.insert(frozen_from, line)
    return RunOutcome(
        schedule=full.schedule,
        decisions=decisions,
        violation=None,
        fingerprints=fingerprints,
        narrative=narrative,
        suppressed_decisions=full.suppressed_decisions
        + len(full.decisions)
        - len(decisions),
        pruned=prune is not None,
        observed_at=observed_at,
    )


def _expansions(
    schedule: Tuple[int, ...], outcome: RunOutcome, limit: int
) -> List[Tuple[int, ...]]:
    """Child schedules for every newly discovered expandable decision."""
    children: List[Tuple[int, ...]] = []
    chosen = outcome.chosen()
    for position in range(len(schedule), len(outcome.decisions)):
        decision = outcome.decisions[position]
        if position >= limit or not decision.expandable:
            continue
        prefix = chosen[:position]
        for alternative in range(1, decision.alternatives):
            children.append(prefix + (alternative,))
    return children


def _normalise(schedule: Sequence[int]) -> Tuple[int, ...]:
    """Strip trailing defaults: they are implied by replay."""
    out = list(schedule)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# A search is a run of cells: every run closes its network, so the loop
# leaves the collector as little to find as one run does.
@collector_paused()
def explore(
    scenario,
    options: ExploreOptions = ExploreOptions(),
    progress: Optional[Callable[[int, int], None]] = None,
) -> ExploreResult:
    """Systematically search the scenario's bounded schedule space.

    Returns when the space is exhausted or the first violating
    schedule is found (the caller may then hand it to the shrinker).
    The bound is deepened 1..``max_decisions`` (shortest first); each
    schedule is simulated once, at full depth, and every pass reads it
    through :func:`_at_limit`.  ``progress`` is called as
    ``(runs_so_far, frontier_size)``.
    """
    stats = ExploreStats()
    counterexample: Optional[Counterexample] = None
    exhausted = True
    visited: Dict[str, int] = {}
    full_runs: Dict[Tuple[int, ...], RunOutcome] = {}

    def evaluate(
        schedule: Tuple[int, ...], limit: int, visited: Dict[str, int]
    ) -> RunOutcome:
        full = full_runs.get(schedule)
        if full is None:
            full = run_schedule(
                scenario, schedule, options, limit=options.max_decisions
            )
            full_runs[schedule] = full
            stats.simulations += 1
        if full.violation is None:
            return _at_limit(full, limit, visited)
        # A violation is never derived: the pass's own run decides
        # whether (and where) its shallower oracle sees it.
        stats.simulations += 1
        return run_schedule(scenario, schedule, options, limit=limit, visited=visited)

    for limit in range(1, options.max_decisions + 1) or [0]:
        visited = {}
        pending: List[Tuple[int, ...]] = [()]
        while pending:
            if stats.runs >= options.max_runs:
                exhausted = False
                break
            schedule = pending.pop()
            outcome = evaluate(schedule, limit, visited)
            stats.runs += 1
            stats.depth_reached = max(stats.depth_reached, len(schedule))
            if outcome.pruned:
                stats.states_pruned += 1
            if progress is not None:
                progress(stats.runs, len(pending))
            if outcome.violation is not None:
                stats.violations_seen += 1
                counterexample = Counterexample(
                    scenario=scenario.name,
                    schedule=_normalise(outcome.chosen()),
                    outcome=outcome,
                )
                exhausted = False
                break
            children = _expansions(schedule, outcome, limit)
            stats.decisions_expanded += len(children)
            pending.extend(reversed(children))
        if not exhausted:
            break
    stats.states_visited = len(visited)
    digest = hashlib.sha1(
        repr(sorted(visited.items())).encode()
    ).hexdigest()[:16]
    return ExploreResult(
        scenario=scenario.name,
        options=options,
        stats=stats,
        counterexample=counterexample,
        exhausted=exhausted,
        visited_digest=digest,
    )

