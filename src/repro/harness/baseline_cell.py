"""CBT vs DVMRP vs HPIM-DM under *identical* fault schedules.

The chaos campaign (`repro.harness.campaign`) measures CBT's recovery
latency, control cost, and delivery continuity per fault scenario.
This module turns each of those cells into a *comparison* cell: the
fault schedule is derived once — on the CBT leg, because the scenario
builders consult the standing CBT tree to pick targets — and then
replayed, time-shifted, onto freshly built but byte-identical copies
of the same topology running the DVMRP and HPIM-DM comparators.  All
three protocols therefore see the same links flap, the same routers
freeze, and the same loss/jitter processes (same sub-seeds) at the
same offsets relative to their own fault-start instant.

Replayability is enforced, not assumed: scenarios whose schedules
carry protocol-level callables (the ``DomainEvent``-based migration
scenarios) are rejected, and every leg's applied schedule is reduced
to a relative-time signature whose digest must match the CBT leg's —
the digest travels in the cell fingerprint, so the parallel CI layer's
byte-identity audit also proves the schedules never drifted apart.

Every leg quiesces through the campaign runner's own loop
(:func:`repro.harness.campaign.run_to_quiescence`): run to the last
fault action, then count fixed windows in which the protocol's
activity counter stays flat and its own settledness oracle holds
(CBT: the invariant sweep; HPIM-DM: election census clean and every
advertisement acknowledged; DVMRP: counters flat — flood-and-prune
has no convergence obligation beyond silence).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core.audit import check_invariants
from repro.core.timers import CBTTimers
from repro.harness.campaign import (
    TOPOLOGIES,
    CellResult,
    _probe_delivery,
    run_to_quiescence,
)
from repro.harness.parallel import stable_digest
from repro.harness.scenarios import (
    FAST_TIMERS,
    build_cbt_group,
    build_dvmrp_group,
    build_hpimdm_group,
)
from repro.netsim.engine import cell, collector_paused
from repro.netsim.faults import FaultSchedule

#: Chaos scenarios that replay onto non-CBT protocols: everything in
#: the catalogue except the migration scenarios, whose schedules embed
#: CBT-protocol callables (checked again, structurally, at run time).
BASELINE_SCENARIOS: Tuple[str, ...] = (
    "lossy_links",
    "link_flap",
    "partition",
    "blackout",
    "router_crash",
    "core_crash",
    "jitter_storm",
)

#: The quick (scenario, topology) cells run by the smoke/chaos/full CI
#: tiers; the nightly tier runs the full BASELINE_SCENARIOS × topology
#: matrix instead.
QUICK_BASELINE_CELLS: Tuple[Tuple[str, str], ...] = (
    ("link_flap", "figure1"),
    ("router_crash", "figure1"),
)

PROTOCOLS: Tuple[str, ...] = ("cbt", "dvmrp", "hpimdm")


@dataclass
class ProtocolOutcome:
    """One protocol's measurements for the shared fault schedule."""

    protocol: str
    recovered: bool
    #: Sim seconds from the last fault action to quiescence.
    recovery_time: float
    #: Control messages sent from first fault until quiescence
    #: (periodic keepalives — ECHOs, probes, hellos — excluded by each
    #: engine's own ``control_messages`` accounting).
    control_cost: int
    delivery_before: float
    delivery_after: float
    #: Post-recovery state census (entries + synchronised records).
    state_total: int
    routers_with_state: int
    #: Protocol-specific convergence findings (empty when clean).
    findings: List[str] = field(default_factory=list)

    def fingerprint(self) -> Tuple:
        return (
            self.protocol,
            self.recovered,
            round(self.recovery_time, 6),
            self.control_cost,
            round(self.delivery_before, 6),
            round(self.delivery_after, 6),
            self.state_total,
            self.routers_with_state,
            tuple(self.findings),
        )


@dataclass
class BaselineCompareResult(CellResult):
    """One (scenario, topology, seed) comparison across all protocols."""

    ci_name = "baseline"

    scenario: str
    topology: str
    seed: int
    #: Digest of the relative-time fault signature, identical across
    #: legs by construction (asserted during the run).
    schedule_digest: str
    #: (relative sim time, description) fault actions, CBT-leg view.
    faults: List[Tuple[float, str]] = field(default_factory=list)
    outcomes: List[ProtocolOutcome] = field(default_factory=list)

    def findings(self) -> List[str]:
        """Why this cell is not clean: one line per protocol leg that
        did not recover or ended with findings (empty when clean)."""
        return [
            f"{o.protocol}: recovered={o.recovered} " + "; ".join(o.findings[:5])
            for o in self.outcomes
            if not o.recovered or o.findings
        ]

    @property
    def telemetry(self) -> Dict[str, float]:
        """Per protocol leg: control cost, and recovery time if any."""
        metrics: Dict[str, float] = {}
        for o in self.outcomes:
            if o.recovered:
                metrics[f"ci.baseline.{o.protocol}.recovery_time"] = o.recovery_time
            metrics[f"ci.baseline.{o.protocol}.control_cost"] = o.control_cost
        return metrics

    def outcome(self, protocol: str) -> ProtocolOutcome:
        for outcome in self.outcomes:
            if outcome.protocol == protocol:
                return outcome
        raise KeyError(protocol)

    def fingerprint(self) -> Tuple:
        return (
            self.scenario,
            self.topology,
            self.seed,
            self.schedule_digest,
            tuple((round(at, 6), what) for at, what in self.faults),
            tuple(o.fingerprint() for o in self.outcomes),
        )


def _relative_signature(schedule: FaultSchedule, base: float) -> Tuple:
    """Protocol-independent identity of a schedule: event type + fields
    + fault time relative to ``base``.  Rejects schedules that cannot
    replay onto another protocol (callable-carrying events)."""
    signature = []
    for event in schedule.events:
        fields = dataclasses.asdict(event)
        at = fields.pop("at")
        for key, value in sorted(fields.items()):
            if callable(value):
                raise ValueError(
                    f"{type(event).__name__}.{key} is a callable: this "
                    f"schedule is CBT-specific and cannot replay onto "
                    f"other protocols"
                )
        signature.append(
            (
                round(at - base, 6),
                type(event).__name__,
                tuple((k, str(v)) for k, v in sorted(fields.items())),
            )
        )
    return tuple(sorted(signature))


def _shift_schedule(schedule: FaultSchedule, base: float, new_base: float) -> FaultSchedule:
    """The same events, re-timed so offsets from ``new_base`` equal the
    originals' offsets from ``base``."""
    shifted = FaultSchedule()
    for event in schedule.events:
        shifted.add(dataclasses.replace(event, at=event.at - base + new_base))
    return shifted


@collector_paused()  # one pause over the three legs
def run_baseline_compare_cell(
    scenario: str,
    topology: str = "figure1",
    seed: int = 0,
    timers: CBTTimers = FAST_TIMERS,
) -> BaselineCompareResult:
    """Run one comparison cell: derive the schedule on CBT, replay it
    on DVMRP and HPIM-DM, and measure all three identically."""
    from repro.chaos.scenarios import SCENARIOS, ChaosContext

    if scenario not in BASELINE_SCENARIOS:
        raise ValueError(
            f"scenario {scenario!r} is not replayable across protocols; "
            f"choose from {', '.join(BASELINE_SCENARIOS)}"
        )
    build_schedule = SCENARIOS[scenario]

    # -- CBT leg: derives the schedule everyone else replays ----------
    with cell(TOPOLOGIES[topology].build, seed) as (network, members, cores):
        domain, group = build_cbt_group(network, members, cores, timers=timers)
        before = _probe_delivery(network, members, group)
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
        base = network.scheduler.now
        signature = _relative_signature(schedule, base)
        digest = stable_digest(scenario, topology, seed, signature)
        schedule.apply(network)
        control_start = domain.control_messages_sent()
        network.run(until=schedule.last_time + 1e-6)
        recovered, recovery_time = run_to_quiescence(
            network,
            schedule.last_time,
            timers,
            activity=domain.events_total,
            settled=lambda: not check_invariants(domain),
        )
        result = BaselineCompareResult(
            scenario=scenario,
            topology=topology,
            seed=seed,
            schedule_digest=digest,
            faults=[(round(at - base, 6), what) for at, what in schedule.applied],
        )
        result.outcomes.append(
            ProtocolOutcome(
                protocol="cbt",
                recovered=recovered,
                recovery_time=recovery_time,
                control_cost=domain.control_messages_sent() - control_start,
                delivery_before=before,
                delivery_after=(
                    _probe_delivery(network, members, group) if recovered else 0.0
                ),
                state_total=domain.total_fib_state(),
                routers_with_state=len(domain.on_tree_routers(group)),
                findings=[str(f) for f in check_invariants(domain)],
            )
        )

    # -- comparator legs: identical topology, replayed schedule -------
    for protocol_name in ("dvmrp", "hpimdm"):
        result.outcomes.append(
            _run_comparator_leg(
                protocol_name,
                scenario,
                topology,
                seed,
                timers,
                schedule,
                base,
                digest,
            )
        )
    return result


def _run_comparator_leg(
    protocol_name: str,
    scenario: str,
    topology: str,
    seed: int,
    timers: CBTTimers,
    schedule: FaultSchedule,
    base: float,
    digest: str,
) -> ProtocolOutcome:
    with cell(TOPOLOGIES[topology].build, seed) as (network, members, _cores):
        if protocol_name == "dvmrp":
            # Soft state: prune lifetime on the order of CBT's reconnect
            # timeout, so decay-driven re-flooding happens inside the cell.
            domain, group = build_dvmrp_group(
                network, members, prune_lifetime=timers.reconnect_timeout * 2
            )
            activity: Callable[[], int] = lambda: (
                domain.control_messages() + domain.data_forwards()
            )
            settled: Callable[[], bool] = lambda: True
            findings: Callable[[], List[str]] = lambda: []
        else:
            # Hard state: failure detection tuned to the same §9 budget CBT
            # uses (hellos at the ECHO interval, hold at the ECHO timeout).
            domain, group = build_hpimdm_group(
                network,
                members,
                hello_interval=timers.echo_interval,
                neighbour_hold=timers.echo_timeout,
                rtx_interval=timers.pend_join_interval / 2,
            )
            activity = domain.events_total
            settled = lambda: (  # noqa: E731 - tiny leg-local closures
                domain.pending_total() == 0 and not domain.election_findings()
            )
            findings = lambda: list(domain.election_findings())  # noqa: E731

        before = _probe_delivery(network, members, group)
        replayed = _shift_schedule(schedule, base, network.scheduler.now)
        replay_signature = _relative_signature(replayed, network.scheduler.now)
        replay_digest = stable_digest(scenario, topology, seed, replay_signature)
        if replay_digest != digest:
            raise AssertionError(
                f"replayed schedule drifted on the {protocol_name} leg: "
                f"{replay_digest} != {digest}"
            )
        replayed.apply(network)
        control_start = domain.control_messages()
        network.run(until=replayed.last_time + 1e-6)
        recovered, recovery_time = run_to_quiescence(
            network, replayed.last_time, timers, activity=activity, settled=settled
        )
        return ProtocolOutcome(
            protocol=protocol_name,
            recovered=recovered,
            recovery_time=recovery_time,
            control_cost=domain.control_messages() - control_start,
            delivery_before=before,
            delivery_after=(
                _probe_delivery(network, members, group) if recovered else 0.0
            ),
            state_total=domain.total_state(),
            routers_with_state=domain.routers_with_state(),
            findings=findings(),
        )
