"""The chaos scenario catalogue.

Each scenario is a deterministic function from a cell's
:class:`~repro.harness.campaign.CellRun` (the standing tree, the cell
seed and the sim time ``base`` it plans at) to a
:class:`FaultSchedule` whose first fault fires :data:`LEAD` after
``base``.  Targets — which link flaps, which router crashes — are
chosen with a :func:`derive_seed`-seeded RNG over *sorted* candidate
lists, so the same (scenario, seed, topology) triple always produces
the same schedule and therefore the same simulation.

Durations are expressed in units of the §9 timers of
:data:`~repro.harness.scenarios.FAST_TIMERS`, the profile every cell
runs on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.harness.scenarios import FAST_TIMERS
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

if TYPE_CHECKING:  # pragma: no cover - a plan reads a cell, never imports one
    from repro.harness.campaign import CellRun

#: Sim seconds from a plan's ``run.base`` to its first fault.
LEAD = 1.0


def _rng(run: CellRun, label: str) -> random.Random:
    return random.Random(derive_seed(run.seed, label))


def tree_links(run: CellRun) -> List[str]:
    """Names of the links carrying the group's tree edges — the link
    of each on-tree router's parent interface — sorted for
    determinism."""
    names = set()
    for protocol in run.domain.protocols.values():
        entry = protocol.fib.get(run.group)
        if entry is not None and entry.parent_vif is not None:
            names.add(protocol.router.interfaces[entry.parent_vif].link.name)
    return sorted(names)


# -- scenario builders ------------------------------------------------------


def lossy_links(run: CellRun) -> FaultSchedule:
    """Heavy seeded loss on two tree links; retransmission must cope."""
    links = tree_links(run)
    rng = _rng(run, "lossy_links")
    picks = rng.sample(links, min(2, len(links)))
    duration = FAST_TIMERS.pend_join_interval * 6
    start = run.base + LEAD
    schedule = FaultSchedule()
    for index, name in enumerate(picks):
        schedule.add(
            LossBurst(
                at=start + index * FAST_TIMERS.pend_join_interval,
                link=name,
                duration=duration,
                rate=0.35,
                seed=derive_seed(run.seed, "loss", name),
            )
        )
    return schedule


def link_flap(run: CellRun) -> FaultSchedule:
    """A tree link goes down long enough to trip the echo timeout."""
    links = tree_links(run)
    name = _rng(run, "link_flap").choice(links)
    down = FAST_TIMERS.echo_timeout + FAST_TIMERS.echo_interval * 2
    return FaultSchedule().add(
        LinkFlap(at=run.base + LEAD, link=name, duration=down)
    )


def partition(run: CellRun) -> FaultSchedule:
    """Cut a tree link for less than the reconnect timeout: rejoins
    retry across the cut (exercising no-route retry chains) and must
    succeed as soon as it heals."""
    links = tree_links(run)
    name = _rng(run, "partition").choice(links)
    down = FAST_TIMERS.echo_timeout + FAST_TIMERS.reconnect_timeout * 0.6
    return FaultSchedule().add(
        Partition(at=run.base + LEAD, links=(name,), duration=down)
    )


def blackout(run: CellRun) -> FaultSchedule:
    """Cut a tree link beyond the reconnect timeout: rejoins give up,
    downstream branches flush, and fresh joins rebuild after heal."""
    links = tree_links(run)
    name = _rng(run, "blackout").choice(links)
    down = FAST_TIMERS.echo_timeout + FAST_TIMERS.reconnect_timeout * 2
    return FaultSchedule().add(
        Partition(at=run.base + LEAD, links=(name,), duration=down)
    )


def router_crash(run: CellRun) -> FaultSchedule:
    """A non-core on-tree router loses every interface past the echo
    timeout, keeping its state and timers (:class:`NodeOutage`); its
    neighbours must route around it and reconcile when it returns."""
    on_tree = run.domain.on_tree_routers(run.group)
    routers = [name for name in on_tree if name not in run.cores] or on_tree
    name = _rng(run, "router_crash").choice(routers)
    down = FAST_TIMERS.echo_timeout * 2
    return FaultSchedule().add(
        NodeOutage(at=run.base + LEAD, node=name, duration=down)
    )


def core_crash(run: CellRun) -> FaultSchedule:
    """The primary core loses every interface, keeping its state and
    timers (:class:`NodeOutage`), long enough that branches fail over
    to an alternate core (§6.1/§6.2), then returns."""
    name = run.cores[0]
    down = FAST_TIMERS.echo_timeout + FAST_TIMERS.reconnect_timeout * 2
    return FaultSchedule().add(
        NodeOutage(at=run.base + LEAD, node=name, duration=down)
    )


def jitter_storm(run: CellRun) -> FaultSchedule:
    """Delay jitter (reordering) on several tree links: control-plane
    state machines must tolerate out-of-order delivery."""
    links = tree_links(run)
    rng = _rng(run, "jitter_storm")
    picks = rng.sample(links, min(3, len(links)))
    schedule = FaultSchedule()
    for name in picks:
        schedule.add(
            JitterBurst(
                at=run.base + LEAD,
                link=name,
                duration=FAST_TIMERS.echo_interval * 4,
                max_delay=FAST_TIMERS.echo_interval / 2,
                seed=derive_seed(run.seed, "jitter", name),
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


def migration_churn(run: CellRun) -> FaultSchedule:
    """Core migration overlapping membership churn: a member's quit is
    in flight when the new core list is announced, and a fresh join
    races the old primary's retirement."""
    from repro.core.migration import MigrationCoordinator

    domain, group = run.domain, run.group
    coordinator = MigrationCoordinator(domain, group, stretch_threshold=1.0)
    rng = _rng(run, "migration_churn")
    leaver = rng.choice(sorted(run.members))
    outsiders = sorted(set(run.network.hosts) - set(run.members))
    joiner = rng.choice(outsiders) if outsiders else None
    step = FAST_TIMERS.pend_join_interval
    start = run.base + LEAD
    schedule = FaultSchedule()
    schedule.add(
        DomainEvent(
            at=start,
            description=f"leave {leaver}",
            action=lambda: domain.leave_host(leaver, group),
        )
    )
    # The leave's quit is still in flight when the handover announces.
    schedule.add(
        DomainEvent(
            at=start + step,
            description="migrate (forced)",
            action=lambda: _force_handover(coordinator),
        )
    )
    if joiner is not None:
        # Graft confirmation is first polled ~2 steps after announce;
        # this join races the retirement announcement.
        schedule.add(
            DomainEvent(
                at=start + step * 2.5,
                description=f"join {joiner}",
                action=lambda: domain.join_host(joiner, group),
            )
        )
    return schedule


def migration_partition(run: CellRun) -> FaultSchedule:
    """Core migration with a tree link cut mid-handover: the graft must
    retry across the cut and the handover complete after it heals."""
    from repro.core.migration import MigrationCoordinator

    coordinator = MigrationCoordinator(run.domain, run.group, stretch_threshold=1.0)
    name = _rng(run, "migration_partition").choice(tree_links(run))
    step = FAST_TIMERS.pend_join_interval
    down = FAST_TIMERS.echo_timeout + FAST_TIMERS.reconnect_timeout * 0.5
    start = run.base + LEAD
    schedule = FaultSchedule()
    schedule.add(
        DomainEvent(
            at=start,
            description="migrate (forced)",
            action=lambda: _force_handover(coordinator),
        )
    )
    # Cut while the graft is in flight (before the first confirmation
    # poll at ~2 steps); heal before the reconnect timeout gives up.
    schedule.add(Partition(at=start + step, links=(name,), duration=down))
    return schedule


#: The catalogue, in campaign order.
SCENARIOS: Dict[str, Callable[[CellRun], FaultSchedule]] = {
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
