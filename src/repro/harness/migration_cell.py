"""The core-migration experiment cell (E19, chaos tier ``migration``).

One cell = one topology + seed.  It stands up a CBT group on the
topology's *static* core list, applies a deterministic membership
churn that deliberately skews the member set away from the announced
primary, and lets :class:`~repro.core.migration.MigrationCoordinator`
detect the drift and execute the make-before-break handover — all
under the always-on invariant auditor.

The cell measures the paper's own trade-off axes before and after the
handover: delay stretch and traffic concentration of the live tree
(``repro.metrics``), delivery continuity (the campaign probe), and
control cost.  Everything is derived from the cell seed, so the
fingerprint is byte-identical across runs and across CI worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.audit import InvariantViolation
from repro.core.migration import (
    MigrationConfig,
    MigrationCoordinator,
    network_graph,
    tree_quality,
)
from repro.core.timers import CBTTimers
from repro.harness.campaign import (
    LEGS,
    TOPOLOGIES,
    CellResult,
    _probe_delivery,
    run_to_quiescence,
)
from repro.harness.scenarios import FAST_TIMERS
from repro.netsim.engine import cell
from repro.netsim.faults import derive_seed


@dataclass
class MigrationCellResult(CellResult):
    """Outcome of one migration experiment cell."""

    ci_name = "migration"

    topology: str
    seed: int
    migrated: bool
    recovered: bool
    old_primary: str
    new_primary: str
    #: Hosts that left / joined during the churn phase.
    churn_left: Tuple[str, ...]
    churn_joined: Tuple[str, ...]
    quality_before: Dict[str, float] = field(default_factory=dict)
    quality_after: Dict[str, float] = field(default_factory=dict)
    delivery_before: float = 0.0
    delivery_after: float = 0.0
    #: CBT control messages spent on the handover itself.
    migration_control_cost: int = 0
    violations: List[str] = field(default_factory=list)
    #: End-of-run telemetry snapshot; excluded from :meth:`fingerprint`.
    telemetry: Dict[str, float] = field(default_factory=dict)

    def findings(self) -> List[str]:
        """A cell that did not complete its handover is not clean."""
        return self._audit_findings(
            f"migrated={self.migrated} recovered={self.recovered}",
            self.migrated and self.recovered,
        )

    def fingerprint(self) -> Tuple:
        """Deterministic identity (no wall-clock, rounded floats)."""
        return (
            self.topology,
            self.seed,
            self.migrated,
            self.recovered,
            self.old_primary,
            self.new_primary,
            self.churn_left,
            self.churn_joined,
            tuple(sorted((k, round(v, 6)) for k, v in self.quality_before.items())),
            tuple(sorted((k, round(v, 6)) for k, v in self.quality_after.items())),
            round(self.delivery_before, 6),
            round(self.delivery_after, 6),
            self.migration_control_cost,
            tuple(self.violations),
        )


def _host_router(network, host_name: str) -> Optional[str]:
    """Name of a router on the host's LAN (lowest name on multi-router
    LANs — deterministic and good enough for distance ranking)."""
    link = network.host(host_name).interface.link
    if link is None:
        return None
    routers = sorted(
        interface.node.name
        for interface in link.interfaces
        if interface.node.name in network.routers
    )
    return routers[0] if routers else None


def _plan_churn(
    network, graph, members: List[str], primary: str
) -> Tuple[List[str], List[str]]:
    """Deterministic, rank-based churn skewing membership from ``primary``.

    Leaves the member host closest to the current primary and joins up
    to two non-member hosts farthest from it, so the locality placement
    has a genuinely better core to find.
    """
    dist, _ = graph.dijkstra(primary, weight="delay")

    def distance(host: str) -> float:
        router = _host_router(network, host)
        if router is None or router not in graph.nodes:
            return float("inf")
        return dist.get(router, float("inf"))

    leave = [min(members, key=lambda h: (distance(h), h))] if len(members) > 2 else []
    outsiders = sorted(set(network.hosts) - set(members))
    ranked = sorted(
        (h for h in outsiders if distance(h) != float("inf")),
        key=lambda h: (-distance(h), h),
    )
    return leave, ranked[:2]


def run_migration_cell(
    topology: str = "figure1",
    seed: int = 0,
    timers: CBTTimers = FAST_TIMERS,
    config: Optional[MigrationConfig] = None,
) -> MigrationCellResult:
    """Run one before/after migration measurement under the auditor."""
    with cell(
        TOPOLOGIES[topology].build, derive_seed(seed, "migration", topology)
    ) as (network, members, cores):
        cbt = LEGS["cbt"]
        domain, group = cbt.build(network, members, cores, timers)
        graph = network_graph(network)
        if config is None:
            config = MigrationConfig(stretch_threshold=1.05)
        coordinator = MigrationCoordinator(domain, group, config=config, graph=graph)

        quality_before = tree_quality(domain, graph, group, coordinator.member_routers())
        delivery_before = _probe_delivery(network, members, group)
        old_primary = (coordinator.core_routers() or [""])[0]

        # Deterministic churn: skew the membership away from the primary.
        leave, join = _plan_churn(network, graph, list(members), old_primary)
        now = network.scheduler.now
        for offset, host in enumerate(leave):
            network.scheduler.call_at(
                now + 0.1 + offset * 0.05, domain.leave_host, host, group
            )
        for offset, host in enumerate(join):
            network.scheduler.call_at(
                now + 0.3 + offset * 0.05, domain.join_host, host, group
            )
        current_members = [m for m in members if m not in leave] + list(join)
        network.run(until=now + 3.0)

        # Drift-gated evaluation; force only if the threshold said "stay"
        # (the cell must exercise a handover either way to measure it).
        control_before = domain.control_messages_sent()
        record = coordinator.check()
        if record is None:
            record = coordinator.evaluate(force=True)

        # Run to quiescence under the auditor, campaign-style.
        recovered = False
        violations: List[str] = []

        try:
            recovered, _ = run_to_quiescence(cbt, domain, network.scheduler.now, timers)
        except InvariantViolation as violation:
            violations = [str(f) for f in violation.findings]

        quality_after = tree_quality(domain, graph, group, coordinator.member_routers())
        delivery_after = (
            _probe_delivery(network, sorted(current_members), group) if recovered else 0.0
        )
        domain.auditor.stop()
        coordinator.stop()
        new_primary = (coordinator.core_routers() or [""])[0]
        migration_cost = (
            record.control_cost
            if record is not None and record.control_cost is not None
            else domain.control_messages_sent() - control_before
        )
        return MigrationCellResult(
            topology=topology,
            seed=seed,
            migrated=record is not None and record.completed,
            recovered=recovered,
            old_primary=old_primary,
            new_primary=new_primary,
            churn_left=tuple(leave),
            churn_joined=tuple(join),
            quality_before=quality_before,
            quality_after=quality_after,
            delivery_before=delivery_before,
            delivery_after=delivery_after,
            migration_control_cost=migration_cost,
            violations=violations,
            telemetry=dict(network.telemetry.registry.snapshot()),
        )
