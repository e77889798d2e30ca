"""Deterministic fault-injection campaign runner.

A protocol is one :class:`Leg` row of :data:`LEGS`.  Every cell — chaos,
baseline-compare, migration, flash crowd, churn — has one body,
:func:`cell_run`: build, stand the row's group up, catch the auditor's
violation in one place and quiesce through one loop.  One leg run
(:func:`leg_run`) puts any row under faults.  A campaign sweeps chaos
scenarios × seeds × topologies; each cell is the CBT row run alone: it
builds a fresh network, stands up a CBT tree under the always-on
:class:`~repro.core.audit.InvariantAuditor`, applies the scenario's
:class:`~repro.netsim.faults.FaultSchedule`, and runs the simulation
to quiescence, recording:

* **recovery latency** — sim time from the last fault action until the
  protocol stops emitting events and every invariant holds;
* **control cost** — CBT control messages sent from the first fault
  until quiescence;
* **delivery continuity** — the exactly-once fraction of data probes
  (:meth:`CellRun.probe`) before the faults and again after recovery;
  a member that missed or duplicated one is a finding.

Every run is deterministic: all randomness flows from the cell's seed
through :func:`~repro.netsim.faults.derive_seed`, so re-running a
campaign with the same parameters reproduces identical fingerprints —
which :func:`run_campaign` can verify by construction and the tests
assert.

An auditor violation (a finding persisting past its grace window)
aborts the cell loudly: the result carries the formatted findings and
the merged protocol event trace leading up to them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.baselines.dvmrp import DenseModeDomain, DVMRPDomain
from repro.baselines.hpimdm import HPIMDMDomain
from repro.core.audit import (
    InvariantAuditor,
    InvariantViolation,
    check_invariants,
    convergence_findings,
    transition_findings,
)
from repro.core.bootstrap import CBTDomain
from repro.core.fingerprint import DEFAULT_QUIET_TYPES, domain_fingerprint
from repro.harness.parallel import Fingerprinted
from repro.harness.scenarios import (
    FAST_TIMERS,
    build_cbt_group,
    build_dvmrp_group,
    build_hpimdm_group,
    judge_delivery,
    pick_members,
    send_data,
)
from repro.netsim.address import IPv4Address
from repro.netsim.engine import cell
from repro.netsim.faults import FaultSchedule, derive_seed, fired_faults
from repro.topology.builder import Network

#: Consecutive event-free audit windows required to declare quiescence.
QUIET_WINDOWS = 2

#: Cap on post-fault windows before declaring the cell unrecovered.
MAX_WINDOWS = 40

#: One quiescence window (sim s): the longer of one ECHO interval and
#: two pending-join retransmits.
WINDOW = max(FAST_TIMERS.echo_interval, FAST_TIMERS.pend_join_interval * 2)


@dataclass(frozen=True)
class Leg:
    """One protocol as a cell runs it, on :data:`FAST_TIMERS`, and as
    the explorer searches it.  ``build(network, members, cores,
    settle_time=, join_spacing=)`` stands its group up and returns
    ``(domain, group)`` (cells take the stand-up's defaults); under
    ``audited`` a cell runs it beside an
    :class:`~repro.core.audit.InvariantAuditor`.  The cell fields read
    that domain: ``activity`` (a counter flat while the protocol is
    quiet), ``settled`` (its own convergence oracle), ``findings`` (why
    a settled run is still wrong), ``control`` (control messages sent,
    keepalives excluded) and ``census(domain, group) -> (state_total,
    routers_with_state)``.  The explorer's: ``transition(domain,
    check_loops)`` the hard invariants checked after every explored
    transition, ``convergence(world)`` the end-state oracle on the
    settled explorer world (both return findings; any finding is a
    violation), ``fingerprint(domain)`` the pruning hash, and
    ``quiet_types`` the delivery types never worth branching."""

    build: Callable[..., Tuple[Any, IPv4Address]]
    audited: bool
    activity: Callable[[Any], int]
    settled: Callable[[Any], bool]
    findings: Callable[[Any], List[str]]
    control: Callable[[Any], int]
    census: Callable[[Any, IPv4Address], Tuple[int, int]]
    transition: Callable[[Any, bool], List[Any]]
    convergence: Callable[[Any], List[Any]]
    fingerprint: Callable[[Any], str]
    quiet_types: Tuple[str, ...]


def _dense_census(domain: DenseModeDomain, group) -> Tuple[int, int]:
    return domain.total_state(), domain.routers_with_state()


def _dense_convergence(world) -> List[str]:
    """The dense rows' end-state oracle on a settled explorer world:
    the domain's :meth:`convergence_findings`, then two probes from the
    window's first ``send`` host, else from the spec's first member,
    each delivered exactly once to every member — the deliverability
    goal the CBT sweep checks by walking child pointers, here measured
    in the data plane because a dense-mode tree *is* its per-link
    state."""
    network, group = world.network, world.group
    findings = world.domain.convergence_findings()
    sender = world.sender or world.members[0]
    uids = send_data(network, sender, group, count=2, spacing=0.05)
    return findings + judge_delivery(network, group, sender, uids).findings(
        "probe after convergence"
    )


#: Membership chatter around the joins: never what a dense-mode search
#: branches on.
_IGMP_TYPES = ("MembershipQuery", "MembershipReport", "Leave")

#: The protocol legs, in the order a baseline-compare cell runs them
#: (the first derives the fault schedule the others replay), keyed by
#: the leg a cell or an explorer spec names.  A new protocol is one row.
LEGS: Dict[str, Leg] = {
    "cbt": Leg(
        build=build_cbt_group,
        audited=True,
        activity=CBTDomain.events_total,
        settled=lambda domain: not check_invariants(domain),
        findings=lambda domain: [str(f) for f in check_invariants(domain)],
        control=CBTDomain.control_messages_sent,
        census=lambda domain, group: (
            domain.total_fib_state(), len(domain.on_tree_routers(group))
        ),
        transition=transition_findings,
        convergence=lambda world: convergence_findings(world.domain, world.group, world.members),
        fingerprint=domain_fingerprint,
        quiet_types=DEFAULT_QUIET_TYPES,
    ),
    # Soft state, its prune lifetime on the order of CBT's reconnect
    # timeout so decay-driven re-flooding happens inside the cell; no
    # convergence obligation beyond silence, and no hard invariant to
    # check per transition.
    "dvmrp": Leg(
        build=lambda network, members, cores, **timing: build_dvmrp_group(
            network, members, prune_lifetime=FAST_TIMERS.reconnect_timeout * 2, **timing
        ),
        audited=False,
        activity=lambda domain: domain.control_messages() + domain.data_forwards(),
        settled=lambda domain: True,
        findings=lambda domain: [],
        control=DenseModeDomain.control_messages,
        census=_dense_census,
        transition=lambda domain, check_loops: [],
        convergence=_dense_convergence,
        fingerprint=DVMRPDomain.fingerprint,
        quiet_types=("Probe",) + _IGMP_TYPES,
    ),
    # Hard state, failure detection tuned to CBT's §9 budget (hellos at
    # the ECHO interval, hold at the ECHO timeout); settled once the
    # election census is clean and every advertisement acknowledged.
    # A search's budget goes to the election handshakes, not the hellos.
    "hpimdm": Leg(
        build=lambda network, members, cores, **timing: build_hpimdm_group(
            network,
            members,
            hello_interval=FAST_TIMERS.echo_interval,
            neighbour_hold=FAST_TIMERS.echo_timeout,
            rtx_interval=FAST_TIMERS.pend_join_interval / 2,
            **timing,
        ),
        audited=False,
        activity=HPIMDMDomain.events_total,
        settled=lambda domain: not domain.convergence_findings(),
        findings=lambda domain: list(domain.election_findings()),
        control=DenseModeDomain.control_messages,
        census=_dense_census,
        transition=HPIMDMDomain.transition_findings,
        convergence=_dense_convergence,
        fingerprint=HPIMDMDomain.fingerprint,
        quiet_types=("HpimHello",) + _IGMP_TYPES,
    ),
}


@dataclass
class Topology:
    """A named topology recipe: network plus member/core choices."""

    name: str
    build: Callable[[int], Tuple[Network, List[str], List[str]]]


def _figure1(seed: int) -> Tuple[Network, List[str], List[str]]:
    from repro.topology.figures import build_figure1

    # A cell reads counters and host logs, never the packet trace.
    return build_figure1(trace_enabled=False), ["A", "B", "D", "G", "H"], ["R4", "R9"]


def _waxman16(seed: int) -> Tuple[Network, List[str], List[str]]:
    from repro.topology.generators import waxman_network

    network = waxman_network(16, seed=derive_seed(seed, "waxman16"))
    members = pick_members(network, 5, seed=derive_seed(seed, "members"))
    # Cores: the two highest-degree routers (stable, central picks).
    by_degree = sorted(
        network.routers,
        key=lambda name: (-len(network.routers[name].interfaces), name),
    )
    return network, members, by_degree[:2]


def _grid9(seed: int) -> Tuple[Network, List[str], List[str]]:
    from repro.topology.generators import grid_network

    network = grid_network(3, 3)
    members = pick_members(network, 4, seed=derive_seed(seed, "members"))
    names = sorted(network.routers)
    # Centre router plus a corner: one well-placed and one poor core.
    return network, members, [names[len(names) // 2], names[0]]


TOPOLOGIES: Dict[str, Topology] = {
    "figure1": Topology("figure1", _figure1),
    "waxman16": Topology("waxman16", _waxman16),
    "grid9": Topology("grid9", _grid9),
}


class CellResult(Fingerprinted):
    """What a cell's result states about itself — all the CI layer
    reads: ``fingerprint()`` (its deterministic identity: its own
    fields), ``findings()`` (why it is not clean; empty when it is) and
    ``metrics`` (its own ``telemetry`` plus ``ci.<ci_name>.cells`` and
    ``.clean``)."""

    ci_name = ""

    def findings(self) -> List[str]:
        raise NotImplementedError

    @property
    def clean(self) -> bool:
        return not self.findings()

    @property
    def metrics(self) -> Dict[str, float]:
        return {
            **self.telemetry,
            f"ci.{self.ci_name}.cells": 1,
            f"ci.{self.ci_name}.clean": int(self.clean),
        }

    def _audit_findings(self, state: str, settled: bool) -> List[str]:
        """The ``state`` line unless ``settled``, then one line per
        auditor violation (ten at most)."""
        return ([] if settled else [state]) + [
            f"violation: {line}" for line in self.violations[:10]
        ]


@dataclass
class ScenarioResult(CellResult):
    """Outcome of one (scenario, seed, topology) campaign cell."""

    ci_name = "chaos"
    unfingerprinted = ("trace", "audit_checks", "telemetry", "delivery_findings")

    scenario: str
    topology: str
    seed: int
    recovered: bool
    #: Sim seconds from the last fault action to quiescence (inf when
    #: the cell never quiesced).
    recovery_time: float
    #: CBT control messages sent between first fault and quiescence.
    control_cost: int
    #: Fraction of (member, probe) pairs delivered once before the faults.
    delivery_before: float
    #: Same fraction measured after recovery.
    delivery_after: float
    #: (sim time, description) of each fault action fired, off the bus.
    faults: List[Tuple[float, str]] = field(default_factory=list)
    #: Formatted auditor findings, when the auditor tripped.
    violations: List[str] = field(default_factory=list)
    #: Protocol event trace accompanying a violation.
    trace: List[str] = field(default_factory=list)
    audit_checks: int = 0
    #: End-of-run telemetry snapshot (deterministic for a deterministic
    #: cell).
    telemetry: Dict[str, float] = field(default_factory=dict)
    #: :meth:`CellRun.probe`'s lines (the fractions fingerprint them).
    delivery_findings: List[str] = field(default_factory=list)

    def findings(self) -> List[str]:
        return self._audit_findings("recovered=False", self.recovered) + self.delivery_findings


@dataclass
class ProtocolOutcome(Fingerprinted):
    """One protocol leg's measurements under its fault schedule."""

    protocol: str
    recovered: bool
    #: Sim seconds from the last fault action to quiescence.
    recovery_time: float
    #: Control messages sent from first fault until quiescence
    #: (periodic keepalives — ECHOs, probes, hellos — excluded by each
    #: engine's own accounting).
    control_cost: int
    delivery_before: float
    delivery_after: float
    #: Post-recovery state census (entries + synchronised records).
    state_total: int
    routers_with_state: int
    #: Auditor violations, else the leg's convergence findings, then
    #: the probes' (empty when clean).
    findings: List[str] = field(default_factory=list)


@dataclass
class CellRun:
    """One cell as :func:`cell_run` stood it up — the leg row, the open
    network, the domain and group, and the build's members (a workload
    build's host pool) and cores — plus what the run learns:
    ``recovered`` / ``recovery_time`` from :meth:`quiesce`,
    ``violations`` / ``trace`` from :meth:`audited`,
    ``delivery_findings`` from :meth:`probe`.  :func:`leg_run` adds its
    ``outcome``, the ``schedule`` it applied, the sim time ``base`` it
    planned that schedule at and the cell ``seed`` the plan draws
    from."""

    leg: Leg
    network: Network
    domain: Any
    group: IPv4Address
    members: List[str]
    cores: List[str]
    recovered: bool = False
    recovery_time: float = float("inf")
    violations: List[str] = field(default_factory=list)
    trace: List[str] = field(default_factory=list)
    outcome: Optional[ProtocolOutcome] = None
    schedule: Optional[FaultSchedule] = None
    base: float = 0.0
    seed: int = 0
    delivery_findings: List[str] = field(default_factory=list)

    @contextmanager
    def audited(self) -> Iterator[None]:
        """``with run.audited():`` — the one place a cell meets the
        auditor's :class:`InvariantViolation`: it ends the block, and
        the run keeps its findings and event trace."""
        try:
            yield
        except InvariantViolation as violation:
            self.violations = [str(f) for f in violation.findings]
            self.trace = list(violation.trace)

    def probe(self, sender: str, label: str) -> float:
        """Two probes from ``sender`` through the one oracle
        (:func:`~repro.harness.scenarios.judge_delivery`): returns their
        exactly-once fraction and adds its ``label`` lines to
        ``delivery_findings``."""
        uids = send_data(self.network, sender, self.group, count=2, spacing=0.05)
        delivery = judge_delivery(self.network, self.group, sender, uids)
        self.delivery_findings += delivery.findings(label)
        return delivery.fraction

    def quiesce(self, since: float) -> bool:
        """The one quiescence loop: run the network in :data:`WINDOW`
        steps until ``leg.activity`` stays flat and ``leg.settled``
        holds for :data:`QUIET_WINDOWS` consecutive windows.  Sets
        ``recovered`` and ``recovery_time`` — sim seconds from
        ``since`` to the start of the quiet windows, or ``inf`` after
        :data:`MAX_WINDOWS` — and returns ``recovered``."""
        leg, domain, network = self.leg, self.domain, self.network
        quiet = 0
        last = leg.activity(domain)
        for _ in range(MAX_WINDOWS):
            network.run(until=network.scheduler.now + WINDOW)
            count = leg.activity(domain)
            if count == last and leg.settled(domain):
                quiet += 1
                if quiet >= QUIET_WINDOWS:
                    # The quiet windows are settle margin, not recovery work.
                    self.recovered = True
                    self.recovery_time = max(
                        0.0, network.scheduler.now - QUIET_WINDOWS * WINDOW - since
                    )
                    return True
            else:
                quiet = 0
            last = count
        self.recovered, self.recovery_time = False, float("inf")
        return False


@contextmanager
def cell_run(
    name: str,
    build: Callable,
    *args: Any,
    members: Optional[Sequence[str]] = None,
) -> Iterator[CellRun]:
    """``with cell_run(name, build, *args) as run:`` — the one
    cell body.  ``build(*args)`` returns ``(network, members, cores)``;
    the ``LEGS[name]`` group stands up on it, joined by ``members`` when
    given, else by the build's, and an audited row's
    :class:`InvariantAuditor` (the domain's ``auditor``) starts.  The
    network closes when the block ends."""
    leg = LEGS[name]
    with cell(build, *args) as (network, built, cores):
        domain, group = leg.build(network, built if members is None else members, cores)
        if leg.audited:
            domain.auditor = InvariantAuditor(domain, interval=FAST_TIMERS.pend_join_interval)
            domain.auditor.start()
        yield CellRun(leg, network, domain, group, built, cores)


@contextmanager
def leg_run(name: str, topology: str, seed: int, plan: Callable) -> Iterator[CellRun]:
    """``with leg_run(...) as run:`` — the ``LEGS[name]`` protocol
    through one fault cell: build ``topology`` at ``seed``, stand the
    group up, probe, set ``run.base`` (now) and ``run.seed``, apply
    ``plan(run)``, run past the last fault and to quiescence, probe,
    take the census into ``run.outcome`` (probes from the build's first
    member).  An auditor violation ends the run unrecovered, its
    findings the outcome's."""
    with cell_run(name, TOPOLOGIES[topology].build, seed) as run:
        network, domain, group, members = run.network, run.domain, run.group, run.members
        leg = run.leg
        delivery_before = run.probe(members[0], "delivery before faults")
        run.base, run.seed = network.scheduler.now, seed
        run.schedule = schedule = plan(run)
        schedule.apply(network)
        control_start = leg.control(domain)
        with run.audited():
            network.run(until=schedule.last_time + 1e-6)
            run.quiesce(schedule.last_time)
        run.outcome = ProtocolOutcome(
            name,
            run.recovered,
            run.recovery_time,
            leg.control(domain) - control_start,
            delivery_before,
            run.probe(members[0], "delivery after recovery") if run.recovered else 0.0,
            *leg.census(domain, group),
            findings=(run.violations or leg.findings(domain)) + run.delivery_findings,
        )
        yield run


def run_scenario(scenario: str, topology: str = "figure1", seed: int = 0) -> ScenarioResult:
    """Run one campaign cell: the CBT leg alone, under its auditor."""
    from repro.chaos.scenarios import SCENARIOS

    with leg_run("cbt", topology, seed, SCENARIOS[scenario]) as run:
        auditor = run.domain.auditor
        auditor.stop()
        o = run.outcome
        return ScenarioResult(
            scenario,
            topology,
            seed,
            o.recovered,
            o.recovery_time,
            o.control_cost,
            o.delivery_before,
            o.delivery_after,
            faults=fired_faults(run.network),
            violations=run.violations,
            trace=run.trace,
            audit_checks=auditor.checks_run,
            telemetry=dict(run.network.telemetry.registry.snapshot()),
            delivery_findings=run.delivery_findings,
        )


def run_campaign(
    scenarios: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    topologies: Sequence[str] = ("figure1",),
    quick: bool = False,
    progress: Optional[Callable[[ScenarioResult], None]] = None,
) -> List[ScenarioResult]:
    """Sweep scenarios × seeds × topologies deterministically; returns
    the cells' results in sweep order.

    ``quick`` shrinks the sweep to the smoke set used by CI:
    :data:`~repro.chaos.scenarios.QUICK_SCENARIOS` × 1 seed on Figure 1.
    """
    from repro.chaos.scenarios import QUICK_SCENARIOS, SCENARIOS

    if quick:
        scenarios = list(QUICK_SCENARIOS)
        seeds = tuple(seeds)[:1]
        topologies = ("figure1",)
    elif scenarios is None:
        scenarios = list(SCENARIOS)
    results = []
    for topology in topologies:
        for scenario in scenarios:
            for seed in seeds:
                result = run_scenario(scenario, topology=topology, seed=seed)
                results.append(result)
                if progress is not None:
                    progress(result)
    return results
