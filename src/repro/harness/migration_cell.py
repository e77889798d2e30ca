"""The core-migration experiment cell (E19, chaos tier ``migration``).

One cell = one topology + seed.  It stands up a CBT group on the
topology's *static* core list, applies a deterministic membership
churn that deliberately skews the member set away from the announced
primary, and lets :class:`~repro.core.migration.MigrationCoordinator`
detect the drift and execute the make-before-break handover — all
under the always-on invariant auditor.

The cell measures the paper's own trade-off axes before and after the
handover: delay stretch and traffic concentration of the live tree
(``repro.metrics``), delivery continuity (the cell probe), and
control cost.  Everything is derived from the cell seed, so the
fingerprint is byte-identical across runs and across CI worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.migration import MigrationCoordinator, tree_quality
from repro.harness.campaign import TOPOLOGIES, CellResult, cell_run
from repro.harness.scenarios import joined_hosts, serving_router
from repro.netsim.faults import derive_seed


@dataclass
class MigrationCellResult(CellResult):
    """Outcome of one migration experiment cell."""

    ci_name = "migration"
    unfingerprinted = ("telemetry", "delivery_findings")

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
    #: End-of-run telemetry snapshot.
    telemetry: Dict[str, float] = field(default_factory=dict)
    #: :meth:`~repro.harness.campaign.CellRun.probe`'s lines (the
    #: fractions fingerprint them).
    delivery_findings: List[str] = field(default_factory=list)

    def findings(self) -> List[str]:
        """A cell that did not hand over, recover or deliver is not clean."""
        return self._audit_findings(
            f"migrated={self.migrated} recovered={self.recovered}",
            self.migrated and self.recovered,
        ) + self.delivery_findings


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
        router = serving_router(network, host)
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


def run_migration_cell(topology: str = "figure1", seed: int = 0) -> MigrationCellResult:
    """Run one before/after migration measurement under the auditor."""
    with cell_run(
        "cbt", TOPOLOGIES[topology].build, derive_seed(seed, "migration", topology)
    ) as run:
        network, domain, group, members = run.network, run.domain, run.group, run.members
        coordinator = MigrationCoordinator(domain, group, stretch_threshold=1.05)
        graph = coordinator.graph

        quality_before = tree_quality(domain, graph, group, coordinator.member_routers())
        delivery_before = run.probe(members[0], "delivery before churn")
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
        network.run(until=now + 3.0)

        # Drift-gated evaluation; force only if the threshold said "stay"
        # (the cell must exercise a handover either way to measure it).
        control_before = domain.control_messages_sent()
        record = coordinator.check()
        if record is None:
            record = coordinator.evaluate(force=True)

        # Run to quiescence under the auditor, campaign-style.
        with run.audited():
            run.quiesce(network.scheduler.now)

        quality_after = tree_quality(domain, graph, group, coordinator.member_routers())
        sender = joined_hosts(network, group)[0]  # the lowest-named member left
        delivery_after = run.probe(sender, "delivery after handover") if run.recovered else 0.0
        domain.auditor.stop()
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
            recovered=run.recovered,
            old_primary=old_primary,
            new_primary=new_primary,
            churn_left=tuple(leave),
            churn_joined=tuple(join),
            quality_before=quality_before,
            quality_after=quality_after,
            delivery_before=delivery_before,
            delivery_after=delivery_after,
            migration_control_cost=migration_cost,
            violations=run.violations,
            telemetry=dict(network.telemetry.registry.snapshot()),
            delivery_findings=run.delivery_findings,
        )
