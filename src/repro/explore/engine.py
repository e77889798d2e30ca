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
  bounded by ``max_decisions`` positions, optionally iterating the
  bound upward (iterative deepening) so shallow counterexamples are
  found first;
* **state-hash pruning** cuts runs that reach a state fingerprint
  (:func:`repro.explore.fingerprint.domain_fingerprint`) already seen
  at the same or shallower depth.

The oracle (:mod:`repro.explore.oracle`) is consulted after every
explored transition (hard invariants) and once the schedule has run
out and the simulation settled (full invariant sweep + convergence).
Replay is exact because the simulator itself is deterministic: the
same scenario + schedule always reproduces the same run.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.explore.fingerprint import domain_fingerprint
from repro.explore.oracle import convergence_findings, transition_findings
from repro.netsim.engine import cell, collector_paused

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
    quiet_types: Tuple[str, ...] = ("HELLO", "ECHO_REQUEST", "ECHO_REPLY")
    #: Iterate the depth bound 1..max_decisions (shortest first).
    deepening: bool = True
    #: Branch same-instant deliveries that are pure broadcast fan-out
    #: of a single transmission (same datagram uid).
    branch_fanout: bool = False
    #: Branch tie groups containing only untagged (timer) events.
    branch_untagged: bool = False
    #: Apply the hard loop check at every transition (disable for
    #: scenarios whose faults make transient §6.3 loops legitimate).
    check_loops: bool = True
    #: Runaway guard on total runs across the whole exploration.
    max_runs: int = 20_000

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
    #: stay unambiguous when violations from many shards are merged.
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

    def chosen(self) -> Tuple[int, ...]:
        return tuple(decision.chosen for decision in self.decisions)


@dataclass
class ExploreStats:
    """Counts reported by an exploration (all sim-derived, no wall clock)."""

    runs: int = 0
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
    #: Sub-seed of the search cell that found it (None = unseeded
    #: single-process search); pins provenance across shards.
    seed: Optional[int] = None
    #: Goal predicate a backward search confirmed ("" = forward find).
    predicate: str = ""
    #: Which engine produced it: "forward" | "frontier" | "backward".
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
    schedule, records alternatives, checks the transition oracle, and
    prunes against the shared visited-state map."""

    def __init__(
        self,
        world,
        options: ExploreOptions,
        schedule: Sequence[int],
        limit: int,
        visited: Optional[Dict[str, int]],
        check_loops: bool,
        transition_fn: Optional[Callable] = None,
        fingerprint_fn: Optional[Callable] = None,
    ) -> None:
        self.world = world
        self.options = options
        self.schedule = tuple(schedule)
        self.limit = limit
        self.visited = visited
        self.check_loops = check_loops
        self.transition_fn = transition_fn
        self.fingerprint_fn = fingerprint_fn
        self.decisions: List[Decision] = []
        self.fingerprints: List[str] = []
        self.narrative: List[str] = []
        self.suppressed = 0
        self.drops_used = 0
        self.frozen = False
        self.pruned = False
        self.prune_hits = 0

    # -- oracle + pruning ----------------------------------------------

    def observe_state(self, final: bool = False) -> None:
        """Check the transition oracle and fingerprint the state the
        previous transition produced (also called, with ``final``, at
        window end — where reaching a known state cuts nothing, so it
        is recorded but not counted as a prune)."""
        domain = self.world.domain
        if self.transition_fn is not None:
            findings = self.transition_fn(self.world)
        else:
            findings = transition_findings(domain, check_loops=self.check_loops)
        now = domain.network.scheduler.now
        if findings:
            raise _ViolationSignal(
                Violation(
                    stage="transition",
                    time=now,
                    findings=[str(finding) for finding in findings],
                )
            )
        if self.fingerprint_fn is not None:
            fingerprint = self.fingerprint_fn(self.world)
        else:
            fingerprint = domain_fingerprint(domain)
        self.fingerprints.append(fingerprint)
        if self.visited is None or self.frozen:
            return
        depth = len(self.decisions)
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
                self.prune_hits += 1
                self.narrative.append(
                    f"t={now:.3f} pruned: state {fingerprint} already "
                    f"expanded at depth {seen_at}"
                )
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
        if not interesting and not self.options.branch_untagged:
            return 0
        if (
            not self.options.branch_fanout
            and len(tagged) == len(tags)
            and all(tag[0] == "deliver" for tag in tagged)
            and len({tag[-1] for tag in tagged}) == 1
        ):
            return 0  # broadcast fan-out of one transmission (same uid)
        labels = [_tag_label(tag) for tag in tags]
        return self._decide("order", time, labels)

    # -- link deliver/drop gate ------------------------------------------

    def gate(self, link, sender, datagram) -> bool:
        from repro.netsim.link import describe_payload

        label = describe_payload(datagram)
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

    def choose_fault(
        self, candidates: List[Tuple[str, Callable[[], None]]]
    ) -> None:
        if not candidates:
            return
        labels = ["no fault"] + [label for label, _apply in candidates]
        now = self.world.network.scheduler.now
        choice = self._decide("fault", now, labels)
        if choice > 0:
            candidates[choice - 1][1]()


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
        controller = _Controller(
            world,
            options,
            schedule,
            limit=limit,
            visited=visited,
            check_loops=options.check_loops and scenario.check_loops,
            transition_fn=getattr(scenario, "transition_oracle", None),
            fingerprint_fn=getattr(scenario, "state_fingerprint", None),
        )
        scheduler.choice_hook = controller.scheduler_choice
        for link in network.links.values():
            link.gate = controller.gate
        start = scheduler.now
        violation: Optional[Violation] = None
        try:
            if scenario.fault_candidates is not None:
                controller.choose_fault(scenario.fault_candidates(world))
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
            convergence = getattr(scenario, "convergence_oracle", None)
            if convergence is not None:
                findings = [str(finding) for finding in convergence(world)]
            else:
                findings = [
                    str(finding)
                    for finding in convergence_findings(
                        world.domain, world.group, world.members
                    )
                ]
            if scenario.extra_oracle is not None:
                findings.extend(scenario.extra_oracle(world))
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
    ``progress`` is called as ``(runs_so_far, frontier_size)``.
    """
    stats = ExploreStats()
    counterexample: Optional[Counterexample] = None
    exhausted = True
    visited: Dict[str, int] = {}
    limits = (
        list(range(1, options.max_decisions + 1))
        if options.deepening and options.max_decisions > 0
        else [options.max_decisions]
    )
    for limit in limits:
        visited = {}
        pending: List[Tuple[int, ...]] = [()]
        while pending:
            schedule = pending.pop()
            outcome = run_schedule(
                scenario, schedule, options, limit=limit, visited=visited
            )
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
                break
            children = _expansions(schedule, outcome, limit)
            stats.decisions_expanded += len(children)
            pending.extend(reversed(children))
            if stats.runs >= options.max_runs:
                exhausted = False
                break
        if counterexample is not None or not exhausted:
            if counterexample is not None:
                exhausted = False
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


# -- frontier sharding -------------------------------------------------------


def _visited_digest(visited: Dict[str, int]) -> str:
    return hashlib.sha1(repr(sorted(visited.items())).encode()).hexdigest()[:16]


@dataclass
class FrontierShard:
    """One shard's slice of a partitioned forward search.

    The root run's child schedules are partitioned round-robin
    (``child_index % shard_count == shard_index``), so the shards are
    disjoint, their union covers the whole frontier, and each shard is
    a self-contained deterministic unit: identity is fixed by
    ``(scenario, options, shard_index, shard_count)`` alone, never by
    worker count or completion order.
    """

    scenario: str
    shard_index: int
    shard_count: int
    stats: ExploreStats
    counterexamples: List[Counterexample]
    visited: Dict[str, int]
    exhausted: bool
    visited_digest: str


@collector_paused()  # as ``explore``
def explore_frontier_shard(
    scenario,
    options: ExploreOptions,
    shard_index: int,
    shard_count: int,
    seed: Optional[int] = None,
    max_counterexamples: int = 3,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FrontierShard:
    """Explore one deterministic shard of the scenario's DFS frontier.

    Every shard replays the root (all-defaults) schedule to discover
    the frontier, then explores only the subtrees under its own slice
    of root children.  Shard 0 additionally owns the root itself (its
    states, and any root violation).  Unlike :func:`explore`, the
    search does not stop at the first violation: it keeps draining its
    subtrees (collecting up to ``max_counterexamples``) so the merged
    counterexample list is a property of the frontier, not of worker
    scheduling.  Iterative deepening is disabled — the limit is
    ``options.max_decisions`` throughout, so the partition of children
    is identical in every shard.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index {shard_index} outside 0..{shard_count - 1}"
        )
    limit = options.max_decisions
    stats = ExploreStats()
    counterexamples: List[Counterexample] = []
    visited: Dict[str, int] = {}
    exhausted = True

    root = run_schedule(
        scenario, (), options, limit=limit,
        visited=visited if shard_index == 0 else None,
    )
    if shard_index == 0:
        stats.runs += 1
        stats.depth_reached = 0
        if root.violation is not None:
            stats.violations_seen += 1
            counterexamples.append(
                Counterexample(
                    scenario=scenario.name,
                    schedule=_normalise(root.chosen()),
                    outcome=root,
                    seed=seed,
                    source="frontier",
                )
            )

    children = _expansions((), root, limit)
    pending: List[Tuple[int, ...]] = [
        child
        for index, child in enumerate(children)
        if index % shard_count == shard_index
    ]
    stats.decisions_expanded += len(pending)
    pending.reverse()

    while pending:
        schedule = pending.pop()
        outcome = run_schedule(
            scenario, schedule, options, limit=limit, visited=visited
        )
        stats.runs += 1
        stats.depth_reached = max(stats.depth_reached, len(schedule))
        if outcome.pruned:
            stats.states_pruned += 1
        if progress is not None:
            progress(stats.runs, len(pending))
        if outcome.violation is not None:
            stats.violations_seen += 1
            if len(counterexamples) < max_counterexamples:
                counterexamples.append(
                    Counterexample(
                        scenario=scenario.name,
                        schedule=_normalise(outcome.chosen()),
                        outcome=outcome,
                        seed=seed,
                        source="frontier",
                    )
                )
            else:
                exhausted = False  # capped: subtree not fully reported
            continue
        grandchildren = _expansions(schedule, outcome, limit)
        stats.decisions_expanded += len(grandchildren)
        pending.extend(reversed(grandchildren))
        if stats.runs >= options.max_runs:
            exhausted = False
            break

    stats.states_visited = len(visited)
    return FrontierShard(
        scenario=scenario.name,
        shard_index=shard_index,
        shard_count=shard_count,
        stats=stats,
        counterexamples=counterexamples,
        visited=visited,
        exhausted=exhausted,
        visited_digest=_visited_digest(visited),
    )


@dataclass
class FrontierMerge:
    """Deterministic fold of every shard of one frontier."""

    scenario: str
    shard_count: int
    stats: ExploreStats
    counterexamples: List[Counterexample]
    visited: Dict[str, int]
    exhausted: bool
    visited_digest: str


def merge_frontier_payloads(
    payloads: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Fold the ``extra`` payloads of ``explore-frontier`` work units
    (see :mod:`repro.harness.parallel`) into one deterministic summary.

    Same fold as :func:`merge_frontier_shards`, but over the
    JSON-compatible shard payloads that ride back from worker
    processes: min-depth union of visited fingerprints, sorted
    counterexample schedules, and the same digest convention — so the
    merged digest is byte-identical for any worker count.
    """
    if not payloads:
        raise ValueError("no shard payloads to merge")
    names = {str(p["scenario"]) for p in payloads}
    if len(names) != 1:
        raise ValueError(
            f"cannot merge payloads of different scenarios: {names}"
        )
    visited: Dict[str, int] = {}
    counterexamples: List[List[int]] = []
    exhausted = True
    for payload in sorted(payloads, key=lambda p: int(p["shard_index"])):
        for fingerprint, depth in dict(payload["visited"]).items():
            depth = int(depth)
            known = visited.get(fingerprint)
            if known is None or depth < known:
                visited[fingerprint] = depth
        counterexamples.extend(
            [int(v) for v in schedule]
            for schedule in payload.get("counterexamples", [])
        )
        exhausted = exhausted and bool(payload.get("exhausted", True))
    counterexamples.sort()
    return {
        "scenario": names.pop(),
        "shard_count": int(payloads[0]["shard_count"]),
        "states_visited": len(visited),
        "visited": visited,
        "visited_digest": _visited_digest(visited),
        "counterexamples": counterexamples,
        "exhausted": exhausted,
    }


def merge_frontier_shards(shards: Sequence[FrontierShard]) -> FrontierMerge:
    """Union the shards: visited fingerprints keep their minimum
    depth, counterexamples sort by schedule, stats sum.  The merged
    digest is byte-identical for any worker count or completion order
    because every input shard is itself deterministic and the fold is
    order-insensitive."""
    if not shards:
        raise ValueError("no shards to merge")
    names = {shard.scenario for shard in shards}
    if len(names) != 1:
        raise ValueError(f"cannot merge shards of different scenarios: {names}")
    counts = {shard.shard_count for shard in shards}
    if len(counts) != 1:
        raise ValueError("cannot merge shards with differing shard_count")
    visited: Dict[str, int] = {}
    stats = ExploreStats()
    counterexamples: List[Counterexample] = []
    exhausted = True
    for shard in sorted(shards, key=lambda s: s.shard_index):
        for fingerprint, depth in shard.visited.items():
            known = visited.get(fingerprint)
            if known is None or depth < known:
                visited[fingerprint] = depth
        stats.runs += shard.stats.runs
        stats.states_pruned += shard.stats.states_pruned
        stats.decisions_expanded += shard.stats.decisions_expanded
        stats.violations_seen += shard.stats.violations_seen
        stats.depth_reached = max(
            stats.depth_reached, shard.stats.depth_reached
        )
        counterexamples.extend(shard.counterexamples)
        exhausted = exhausted and shard.exhausted
    stats.states_visited = len(visited)
    counterexamples.sort(key=lambda c: (c.schedule, c.source))
    return FrontierMerge(
        scenario=shards[0].scenario,
        shard_count=shards[0].shard_count,
        stats=stats,
        counterexamples=counterexamples,
        visited=visited,
        exhausted=exhausted,
        visited_digest=_visited_digest(visited),
    )
