"""The chaos scenario catalogue.

Each scenario is a deterministic function from a :class:`ChaosContext`
(the standing tree plus a seed) to a :class:`FaultSchedule`.  Targets
— which link flaps, which router crashes — are chosen with a
:func:`derive_seed`-seeded RNG over *sorted* candidate lists, so the
same (scenario, seed, topology) triple always produces the same
schedule and therefore the same simulation.

Durations are expressed in units of the domain's §9 timers, so the
catalogue works unchanged for real-time and scaled-timer runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.bootstrap import CBTDomain
from repro.core.timers import CBTTimers
from repro.netsim.address import IPv4Address
from repro.netsim.faults import (
    FaultEvent,
    FaultSchedule,
    JitterBurst,
    LinkFlap,
    LossBurst,
    NodeOutage,
    Partition,
    derive_seed,
)
from repro.topology.builder import Network


@dataclass
class ChaosContext:
    """Everything a scenario builder may consult."""

    network: Network
    domain: CBTDomain
    group: IPv4Address
    members: Sequence[str]
    cores: Sequence[str]
    seed: int
    timers: CBTTimers
    #: Sim time at which the first fault fires.
    start: float = 0.0

    def rng(self, label: str) -> random.Random:
        return random.Random(derive_seed(self.seed, label))

    def tree_links(self) -> List[str]:
        """Names of links carrying a tree edge, sorted for determinism."""
        names = set()
        for child, parent in self.domain.tree_edges(self.group):
            link = link_between(self.network, child, parent)
            if link is not None:
                names.add(link)
        return sorted(names)

    def on_tree_routers(self, exclude_cores: bool = True) -> List[str]:
        routers = [
            name
            for name, protocol in sorted(self.domain.protocols.items())
            if protocol.is_on_tree(self.group)
        ]
        if exclude_cores:
            routers = [r for r in routers if r not in set(self.cores)]
        return routers


def link_between(network: Network, a: str, b: str) -> Optional[str]:
    """Name of a link directly joining routers ``a`` and ``b``."""
    for name in sorted(network.links):
        nodes = {i.node.name for i in network.links[name].interfaces}
        if a in nodes and b in nodes:
            return name
    return None


# -- scenario builders ------------------------------------------------------


def lossy_links(ctx: ChaosContext) -> FaultSchedule:
    """Heavy seeded loss on two tree links; retransmission must cope."""
    links = ctx.tree_links()
    rng = ctx.rng("lossy_links")
    picks = rng.sample(links, min(2, len(links)))
    duration = ctx.timers.pend_join_interval * 6
    schedule = FaultSchedule()
    for index, name in enumerate(picks):
        schedule.add(
            LossBurst(
                at=ctx.start + index * ctx.timers.pend_join_interval,
                link=name,
                duration=duration,
                rate=0.35,
                seed=derive_seed(ctx.seed, "loss", name),
            )
        )
    return schedule


def link_flap(ctx: ChaosContext) -> FaultSchedule:
    """A tree link goes down long enough to trip the echo timeout."""
    links = ctx.tree_links()
    name = ctx.rng("link_flap").choice(links)
    down = ctx.timers.echo_timeout + ctx.timers.echo_interval * 2
    return FaultSchedule().add(
        LinkFlap(at=ctx.start, link=name, duration=down)
    )


def partition(ctx: ChaosContext) -> FaultSchedule:
    """Cut a tree link for less than the reconnect timeout: rejoins
    retry across the cut (exercising no-route retry chains) and must
    succeed as soon as it heals."""
    links = ctx.tree_links()
    name = ctx.rng("partition").choice(links)
    down = ctx.timers.echo_timeout + ctx.timers.reconnect_timeout * 0.6
    return FaultSchedule().add(
        Partition(at=ctx.start, links=(name,), duration=down)
    )


def blackout(ctx: ChaosContext) -> FaultSchedule:
    """Cut a tree link beyond the reconnect timeout: rejoins give up,
    downstream branches flush, and fresh joins rebuild after heal."""
    links = ctx.tree_links()
    name = ctx.rng("blackout").choice(links)
    down = ctx.timers.echo_timeout + ctx.timers.reconnect_timeout * 2
    return FaultSchedule().add(
        Partition(at=ctx.start, links=(name,), duration=down)
    )


def router_crash(ctx: ChaosContext) -> FaultSchedule:
    """A non-core on-tree router loses every interface past the echo
    timeout, keeping its state and timers (:class:`NodeOutage`); its
    neighbours must route around it and reconcile when it returns."""
    routers = ctx.on_tree_routers(exclude_cores=True)
    if not routers:
        routers = ctx.on_tree_routers(exclude_cores=False)
    name = ctx.rng("router_crash").choice(routers)
    down = ctx.timers.echo_timeout * 2
    return FaultSchedule().add(
        NodeOutage(at=ctx.start, node=name, duration=down)
    )


def core_crash(ctx: ChaosContext) -> FaultSchedule:
    """The primary core loses every interface, keeping its state and
    timers (:class:`NodeOutage`), long enough that branches fail over
    to an alternate core (§6.1/§6.2), then returns."""
    name = ctx.cores[0]
    down = ctx.timers.echo_timeout + ctx.timers.reconnect_timeout * 2
    return FaultSchedule().add(
        NodeOutage(at=ctx.start, node=name, duration=down)
    )


def jitter_storm(ctx: ChaosContext) -> FaultSchedule:
    """Delay jitter (reordering) on several tree links: control-plane
    state machines must tolerate out-of-order delivery."""
    links = ctx.tree_links()
    rng = ctx.rng("jitter_storm")
    picks = rng.sample(links, min(3, len(links)))
    schedule = FaultSchedule()
    for name in picks:
        schedule.add(
            JitterBurst(
                at=ctx.start,
                link=name,
                duration=ctx.timers.echo_interval * 4,
                max_delay=ctx.timers.echo_interval / 2,
                seed=derive_seed(ctx.seed, "jitter", name),
            )
        )
    return schedule


@dataclass(frozen=True)
class DomainEvent(FaultEvent):
    """A protocol-level action (membership churn, a migration phase)
    expressed as a fault event, so it rides the FaultSchedule: it is
    fingerprinted with the other faults, counts toward ``last_time``,
    and fires deterministically off the scheduler."""

    description: str = ""
    action: Optional[Callable[[], None]] = None

    def actions(self, network):
        return [(self.at, self.description, self.action)]


def _force_handover(coordinator) -> None:
    """Make the coordinator hand over *now*, even when the locality
    placement already agrees with the announced primary (the scenario
    must exercise a handover either way)."""
    from repro.core.placement import rank_cores

    if coordinator.evaluate(force=True) is not None:
        return
    current = coordinator.core_routers()
    members = coordinator.member_routers()
    if not current or not members:
        return
    ranked = [
        name
        for name in rank_cores(
            coordinator.graph, members, count=len(coordinator.graph.nodes)
        )
        if name != current[0]
    ]
    if ranked:
        coordinator.migrate(ranked[:2])


def migration_churn(ctx: ChaosContext) -> FaultSchedule:
    """Core migration overlapping membership churn: a member's quit is
    in flight when the new core list is announced, and a fresh join
    races the old primary's retirement."""
    from repro.core.migration import MigrationCoordinator

    coordinator = MigrationCoordinator(ctx.domain, ctx.group, stretch_threshold=1.0)
    rng = ctx.rng("migration_churn")
    leaver = rng.choice(sorted(ctx.members))
    outsiders = sorted(set(ctx.network.hosts) - set(ctx.members))
    joiner = rng.choice(outsiders) if outsiders else None
    step = ctx.timers.pend_join_interval
    schedule = FaultSchedule()
    schedule.add(
        DomainEvent(
            at=ctx.start,
            description=f"leave {leaver}",
            action=lambda: ctx.domain.leave_host(leaver, ctx.group),
        )
    )
    # The leave's quit is still in flight when the handover announces.
    schedule.add(
        DomainEvent(
            at=ctx.start + step,
            description="migrate (forced)",
            action=lambda: _force_handover(coordinator),
        )
    )
    if joiner is not None:
        # Graft confirmation is first polled ~2 steps after announce;
        # this join races the retirement announcement.
        schedule.add(
            DomainEvent(
                at=ctx.start + step * 2.5,
                description=f"join {joiner}",
                action=lambda: ctx.domain.join_host(joiner, ctx.group),
            )
        )
    return schedule


def migration_partition(ctx: ChaosContext) -> FaultSchedule:
    """Core migration with a tree link cut mid-handover: the graft must
    retry across the cut and the handover complete after it heals."""
    from repro.core.migration import MigrationCoordinator

    coordinator = MigrationCoordinator(ctx.domain, ctx.group, stretch_threshold=1.0)
    name = ctx.rng("migration_partition").choice(ctx.tree_links())
    step = ctx.timers.pend_join_interval
    down = ctx.timers.echo_timeout + ctx.timers.reconnect_timeout * 0.5
    schedule = FaultSchedule()
    schedule.add(
        DomainEvent(
            at=ctx.start,
            description="migrate (forced)",
            action=lambda: _force_handover(coordinator),
        )
    )
    # Cut while the graft is in flight (before the first confirmation
    # poll at ~2 steps); heal before the reconnect timeout gives up.
    schedule.add(Partition(at=ctx.start + step, links=(name,), duration=down))
    return schedule


#: The catalogue, in campaign order.
SCENARIOS: Dict[str, Callable[[ChaosContext], FaultSchedule]] = {
    "lossy_links": lossy_links,
    "link_flap": link_flap,
    "partition": partition,
    "blackout": blackout,
    "router_crash": router_crash,
    "core_crash": core_crash,
    "jitter_storm": jitter_storm,
    "migration_churn": migration_churn,
    "migration_partition": migration_partition,
}

#: Scenarios used by ``repro chaos --quick`` (fast, still varied).
QUICK_SCENARIOS = ("lossy_links", "link_flap", "partition", "router_crash", "core_crash")
