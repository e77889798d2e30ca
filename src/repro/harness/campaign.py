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
* **delivery continuity** — fraction of members reached by data probes
  before the faults and again after recovery.

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

from repro.baselines.dvmrp import DenseModeDomain
from repro.baselines.hpimdm import HPIMDMDomain
from repro.core.audit import InvariantAuditor, InvariantViolation, check_invariants
from repro.core.bootstrap import CBTDomain
from repro.core.timers import CBTTimers
from repro.harness.parallel import Fingerprinted
from repro.harness.scenarios import (
    FAST_TIMERS,
    build_cbt_group,
    build_dvmrp_group,
    build_hpimdm_group,
    delivered_copies,
    pick_members,
    send_data,
)
from repro.netsim.address import IPv4Address
from repro.netsim.engine import cell
from repro.netsim.faults import FaultSchedule, derive_seed
from repro.topology.builder import Network

#: Consecutive event-free audit windows required to declare quiescence.
QUIET_WINDOWS = 2

#: Cap on post-fault windows before declaring the cell unrecovered.
MAX_WINDOWS = 40


@dataclass(frozen=True)
class Leg:
    """One protocol as a cell runs it.  ``build(network, members,
    cores, timers)`` stands its group up and returns ``(domain,
    group)``; every other field reads that domain: ``activity`` (a
    counter flat while the protocol is quiet), ``settled`` (its own
    convergence oracle), ``findings`` (why a settled run is still
    wrong), ``control`` (control messages sent, keepalives excluded)
    and ``census(domain, group) -> (state_total, routers_with_state)``."""

    build: Callable[..., Tuple[Any, IPv4Address]]
    activity: Callable[[Any], int]
    settled: Callable[[Any], bool]
    findings: Callable[[Any], List[str]]
    control: Callable[[Any], int]
    census: Callable[[Any, IPv4Address], Tuple[int, int]]


def _audited_cbt_group(network, members, cores, timers):
    """``build_cbt_group`` under a started :class:`InvariantAuditor`,
    which the domain holds as ``auditor``."""
    domain, group = build_cbt_group(network, members, cores, timers=timers)
    domain.auditor = InvariantAuditor(domain, interval=timers.pend_join_interval)
    domain.auditor.start()
    return domain, group


def _dense_census(domain: DenseModeDomain, group) -> Tuple[int, int]:
    return domain.total_state(), domain.routers_with_state()


#: The protocol legs, in the order a baseline-compare cell runs them
#: (the first derives the fault schedule the others replay).  A new
#: protocol is one row.
LEGS: Dict[str, Leg] = {
    "cbt": Leg(
        build=_audited_cbt_group,
        activity=CBTDomain.events_total,
        settled=lambda domain: not check_invariants(domain),
        findings=lambda domain: [str(f) for f in check_invariants(domain)],
        control=CBTDomain.control_messages_sent,
        census=lambda domain, group: (
            domain.total_fib_state(), len(domain.on_tree_routers(group))
        ),
    ),
    # Soft state, its prune lifetime on the order of CBT's reconnect
    # timeout so decay-driven re-flooding happens inside the cell; no
    # convergence obligation beyond silence.
    "dvmrp": Leg(
        build=lambda network, members, cores, timers: build_dvmrp_group(
            network, members, prune_lifetime=timers.reconnect_timeout * 2
        ),
        activity=lambda domain: domain.control_messages() + domain.data_forwards(),
        settled=lambda domain: True,
        findings=lambda domain: [],
        control=DenseModeDomain.control_messages,
        census=_dense_census,
    ),
    # Hard state, failure detection tuned to CBT's §9 budget (hellos at
    # the ECHO interval, hold at the ECHO timeout); settled once the
    # election census is clean and every advertisement acknowledged.
    "hpimdm": Leg(
        build=lambda network, members, cores, timers: build_hpimdm_group(
            network,
            members,
            hello_interval=timers.echo_interval,
            neighbour_hold=timers.echo_timeout,
            rtx_interval=timers.pend_join_interval / 2,
        ),
        activity=HPIMDMDomain.events_total,
        settled=lambda domain: (
            domain.pending_total() == 0 and not domain.election_findings()
        ),
        findings=lambda domain: list(domain.election_findings()),
        control=DenseModeDomain.control_messages,
        census=_dense_census,
    ),
}


def run_to_quiescence(leg: Leg, domain, since: float, timers: CBTTimers) -> Tuple[bool, float]:
    """The one quiescence loop, behind :meth:`CellRun.quiesce`.

    Runs the domain's network in fixed windows — the longer of one
    ECHO interval and two pending-join retransmits under ``timers`` —
    until ``leg.activity`` stays flat and ``leg.settled`` holds for
    :data:`QUIET_WINDOWS` consecutive windows.  Returns
    ``(recovered, recovery_time)``: sim seconds from ``since`` to the
    start of the quiet windows, or ``(False, inf)`` after
    :data:`MAX_WINDOWS`.
    """
    network = domain.network
    window = max(timers.echo_interval, timers.pend_join_interval * 2)
    quiet = 0
    last = leg.activity(domain)
    for _ in range(MAX_WINDOWS):
        network.run(until=network.scheduler.now + window)
        count = leg.activity(domain)
        if count == last and leg.settled(domain):
            quiet += 1
            if quiet >= QUIET_WINDOWS:
                # The quiet windows are settle margin, not recovery work.
                return True, max(
                    0.0, network.scheduler.now - QUIET_WINDOWS * window - since
                )
        else:
            quiet = 0
        last = count
    return False, float("inf")


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
    unfingerprinted = ("trace", "audit_checks", "telemetry")

    scenario: str
    topology: str
    seed: int
    recovered: bool
    #: Sim seconds from the last fault action to quiescence (inf when
    #: the cell never quiesced).
    recovery_time: float
    #: CBT control messages sent between first fault and quiescence.
    control_cost: int
    #: Fraction of (member, probe) pairs delivered before the faults.
    delivery_before: float
    #: Same fraction measured after recovery.
    delivery_after: float
    #: (sim time, description) log of fault actions actually applied.
    faults: List[Tuple[float, str]] = field(default_factory=list)
    #: Formatted auditor findings, when the auditor tripped.
    violations: List[str] = field(default_factory=list)
    #: Protocol event trace accompanying a violation.
    trace: List[str] = field(default_factory=list)
    audit_checks: int = 0
    #: End-of-run telemetry snapshot (deterministic for a deterministic
    #: cell).
    telemetry: Dict[str, float] = field(default_factory=dict)

    def findings(self) -> List[str]:
        return self._audit_findings("recovered=False", self.recovered)


@dataclass
class CampaignResult:
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures()

    def fingerprint(self) -> Tuple:
        return tuple(r.fingerprint() for r in self.results)

    def failures(self) -> List[ScenarioResult]:
        return [r for r in self.results if not r.clean]


def _probe_delivery(network: Network, members: Sequence[str], group, count: int = 2) -> float:
    """Send ``count`` probes from the first member; return the fraction
    of (other member, probe) pairs that saw exactly one copy."""
    receivers = [m for m in members[1:]]
    if not receivers:
        return 1.0
    uids = send_data(network, members[0], group, count=count, spacing=0.05)
    hits = 0
    for member in receivers:
        copies = delivered_copies(network, member)
        for uid in uids:
            if copies[uid] == 1:
                hits += 1
    return hits / (len(uids) * len(receivers))


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
    #: Auditor violations, else the leg's convergence findings (empty
    #: when clean).
    findings: List[str] = field(default_factory=list)


@dataclass
class CellRun:
    """One cell as :func:`cell_run` stood it up — the leg row, the open
    network, the domain and group, and the build's members (a workload
    build's host pool) and cores — plus what the run learns:
    ``recovered`` / ``recovery_time`` from :meth:`quiesce`,
    ``violations`` / ``trace`` from :meth:`audited`.  :func:`leg_run`
    adds its ``outcome``, the ``schedule`` it applied and the sim time
    ``base`` it planned that schedule at."""

    leg: Leg
    timers: CBTTimers
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

    def quiesce(self, since: float) -> bool:
        """Run to quiescence (:func:`run_to_quiescence`, recovery time
        counted from ``since``); returns ``recovered``."""
        self.recovered, self.recovery_time = run_to_quiescence(
            self.leg, self.domain, since, self.timers
        )
        return self.recovered


@contextmanager
def cell_run(
    name: str,
    timers: CBTTimers,
    build: Callable,
    *args: Any,
    members: Optional[Sequence[str]] = None,
) -> Iterator[CellRun]:
    """``with cell_run(name, timers, build, *args) as run:`` — the one
    cell body.  ``build(*args)`` returns ``(network, members, cores)``;
    the ``LEGS[name]`` group stands up on it, joined by ``members`` when
    given, else by the build's.  The network closes when the block
    ends."""
    leg = LEGS[name]
    with cell(build, *args) as (network, built, cores):
        domain, group = leg.build(
            network, built if members is None else members, cores, timers
        )
        yield CellRun(leg, timers, network, domain, group, built, cores)


@contextmanager
def leg_run(
    name: str, topology: str, seed: int, timers: CBTTimers, plan: Callable
) -> Iterator[CellRun]:
    """``with leg_run(...) as run:`` — the ``LEGS[name]`` protocol
    through one fault cell: build ``topology`` at ``seed``, stand the
    group up, probe, apply ``plan(ChaosContext)`` (faults from 1 s on),
    run past the last fault and to quiescence, probe, take the census
    into ``run.outcome``.  An auditor violation ends the run
    unrecovered, its findings the outcome's."""
    from repro.chaos.scenarios import ChaosContext

    with cell_run(name, timers, TOPOLOGIES[topology].build, seed) as run:
        network, domain, group, members = run.network, run.domain, run.group, run.members
        leg = run.leg
        delivery_before = _probe_delivery(network, members, group)
        run.base = network.scheduler.now
        run.schedule = schedule = plan(
            ChaosContext(
                network, domain, group, members, run.cores, seed, timers, run.base + 1.0
            )
        )
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
            _probe_delivery(network, members, group) if run.recovered else 0.0,
            *leg.census(domain, group),
            findings=run.violations or leg.findings(domain),
        )
        yield run


def run_scenario(
    scenario: str,
    topology: str = "figure1",
    seed: int = 0,
    timers: CBTTimers = FAST_TIMERS,
) -> ScenarioResult:
    """Run one campaign cell: the CBT leg alone, under its auditor."""
    from repro.chaos.scenarios import SCENARIOS

    with leg_run("cbt", topology, seed, timers, SCENARIOS[scenario]) as run:
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
            faults=list(run.schedule.applied),
            violations=run.violations,
            trace=run.trace,
            audit_checks=auditor.checks_run,
            telemetry=dict(run.network.telemetry.registry.snapshot()),
        )


def run_campaign(
    scenarios: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    topologies: Sequence[str] = ("figure1",),
    timers: CBTTimers = FAST_TIMERS,
    quick: bool = False,
    progress: Optional[Callable[[ScenarioResult], None]] = None,
) -> CampaignResult:
    """Sweep scenarios × seeds × topologies deterministically.

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
    campaign = CampaignResult()
    for topology in topologies:
        for scenario in scenarios:
            for seed in seeds:
                result = run_scenario(
                    scenario, topology=topology, seed=seed, timers=timers
                )
                campaign.results.append(result)
                if progress is not None:
                    progress(result)
    return campaign
