"""Deterministic fault-injection campaign runner.

A campaign sweeps chaos scenarios × seeds × topologies.  Each cell
builds a fresh network, stands up a CBT tree, attaches the always-on
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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.audit import InvariantAuditor, InvariantViolation, check_invariants
from repro.core.timers import CBTTimers
from repro.harness.scenarios import (
    FAST_TIMERS,
    build_cbt_group,
    delivered_copies,
    pick_members,
    send_data,
)
from repro.netsim.engine import cell
from repro.netsim.faults import derive_seed
from repro.topology.builder import Network

#: Consecutive event-free audit windows required to declare quiescence.
QUIET_WINDOWS = 2

#: Cap on post-fault windows before declaring the cell unrecovered.
MAX_WINDOWS = 40


def run_to_quiescence(
    network: Network,
    since: float,
    timers: CBTTimers,
    activity: Callable[[], int],
    settled: Callable[[], bool],
) -> Tuple[bool, float]:
    """The one quiescence loop every cell runner and protocol leg uses.

    Runs ``network`` in fixed windows — the longer of one ECHO interval
    and two pending-join retransmits under ``timers`` — until
    ``activity()`` stays flat and ``settled()`` holds for
    :data:`QUIET_WINDOWS` consecutive windows.  Returns
    ``(recovered, recovery_time)``: sim seconds from ``since`` to the
    start of the quiet windows, or ``(False, inf)`` after
    :data:`MAX_WINDOWS`.
    """
    window = max(timers.echo_interval, timers.pend_join_interval * 2)
    quiet = 0
    last = activity()
    for _ in range(MAX_WINDOWS):
        network.run(until=network.scheduler.now + window)
        count = activity()
        if count == last and settled():
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

    return build_figure1(), ["A", "B", "D", "G", "H"], ["R4", "R9"]


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


class CellResult:
    """What a cell's result states about itself — all the CI layer
    reads: ``fingerprint()`` (its deterministic identity), ``findings()``
    (why it is not clean; empty when it is) and ``metrics`` (its own
    ``telemetry`` plus ``ci.<ci_name>.cells`` and ``.clean``)."""

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
    #: cell).  Excluded from :meth:`fingerprint`.
    telemetry: Dict[str, float] = field(default_factory=dict)

    def findings(self) -> List[str]:
        return self._audit_findings("recovered=False", self.recovered)

    def fingerprint(self) -> Tuple:
        """Deterministic identity of the run (no wall-clock anywhere)."""
        return (
            self.scenario,
            self.topology,
            self.seed,
            self.recovered,
            round(self.recovery_time, 6),
            self.control_cost,
            round(self.delivery_before, 6),
            round(self.delivery_after, 6),
            tuple((round(at, 6), what) for at, what in self.faults),
            tuple(self.violations),
        )


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


def run_scenario(
    scenario: str,
    topology: str = "figure1",
    seed: int = 0,
    timers: CBTTimers = FAST_TIMERS,
    audit_interval: Optional[float] = None,
) -> ScenarioResult:
    """Run one campaign cell to quiescence under the auditor."""
    from repro.chaos.scenarios import SCENARIOS, ChaosContext

    build_schedule = SCENARIOS[scenario]
    with cell(TOPOLOGIES[topology].build, seed) as (network, members, cores):
        domain, group = build_cbt_group(network, members, cores, timers=timers)
        auditor = InvariantAuditor(
            domain,
            interval=audit_interval
            if audit_interval is not None
            else timers.pend_join_interval,
        )
        auditor.start()

        delivery_before = _probe_delivery(network, members, group)

        context = ChaosContext(
            network=network,
            domain=domain,
            group=group,
            members=members,
            cores=cores,
            seed=seed,
            timers=timers,
            start=network.scheduler.now + 1.0,
        )
        schedule = build_schedule(context)
        schedule.apply(network)
        control_before = domain.control_messages_sent()
        faults_end = schedule.last_time

        recovered = False
        recovery_time = float("inf")
        violations: List[str] = []
        trace: List[str] = []
        try:
            network.run(until=faults_end + 1e-6)
            recovered, recovery_time = run_to_quiescence(
                network,
                faults_end,
                timers,
                activity=domain.events_total,
                settled=lambda: not check_invariants(domain),
            )
        except InvariantViolation as violation:
            violations = [str(f) for f in violation.findings]
            trace = list(violation.trace)
        control_cost = domain.control_messages_sent() - control_before
        delivery_after = (
            _probe_delivery(network, members, group) if recovered else 0.0
        )
        auditor.stop()
        return ScenarioResult(
            scenario=scenario,
            topology=topology,
            seed=seed,
            recovered=recovered,
            recovery_time=recovery_time,
            control_cost=control_cost,
            delivery_before=delivery_before,
            delivery_after=delivery_after,
            faults=list(schedule.applied),
            violations=violations,
            trace=trace,
            audit_checks=auditor.checks_run,
            telemetry=dict(network.telemetry.registry.snapshot()),
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

    ``quick`` shrinks the sweep to the smoke set used by the perf/CI
    harness: :data:`~repro.chaos.scenarios.QUICK_SCENARIOS` × 1 seed on
    Figure 1.
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
