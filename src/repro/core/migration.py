"""Live core migration: make-before-break handover for multi-core trees.

The CBT papers leave core placement open; the follow-on literature
(locality-based core selection for multicore shared trees) shows that
clustering the *member* set and placing one core per locality cluster
beats static placement on delay stretch and traffic concentration.
This module closes the loop for a running domain:

* :func:`repro.core.placement.locality_cores` supplies the ranked
  multi-core list per group;
* :class:`MigrationCoordinator` watches membership drift through the
  telemetry registry, decides when the current primary core has gone
  stale (a configurable stretch-degradation threshold on the placement
  objective), and executes the handover;
* the handover itself is make-before-break, in three phases driven by
  deterministic scheduler timers:

  1. **announce** — the coordinator re-announces the core list with
     the new primary first *while keeping every old core listed*, so
     the old primary stays a legitimate root throughout.  Routers
     read the core list from the coordinator and keep no copy, so
     every router sees the re-announcement at once; each hears of it
     through :meth:`~repro.core.router.CBTProtocol.reannounced`.
  2. **graft** — the old primary, now a secondary, re-homes its root
     under the new primary (:meth:`~repro.core.router.CBTProtocol.graft_toward`,
     an active rejoin preceded by the §2.7 flush-child-on-path rule).
     The rest of the old tree keeps its parent pointers — delivery
     continues over the old edges while the new root attaches.
  3. **retire** — only once the graft is confirmed (the old primary
     has a parent, or left the tree) is the final core list announced
     without the old primary; its now-ordinary on-tree state is then
     re-evaluated by the normal §2.7 leaf-quit rule.

Every decision breaks ties by name and all scheduling flows through
the simulation scheduler, so migrations are byte-deterministic per
seed — which is what lets the chaos tier fingerprint them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.placement import locality_cores
from repro.netsim.address import IPv4Address
from repro.topology.graph import Graph, Tree


def network_graph(network) -> Graph:
    """Abstract metric graph of a realised network's router mesh.

    Routers become nodes; every link contributes pairwise edges (with
    the link's propagation delay) between the routers attached to it,
    up or not, so multi-access LANs appear as cliques; of two links
    joining the same routers, the one of lower delay gives the edge.
    Host-only stub LANs add no edges.  The links and their routers are
    link-state routing's one view of the topology
    (:meth:`~repro.routing.linkstate.LinkStateRouting.link_routers`),
    walked by link name in the order the graph then adds the edges.
    The result feeds the same placement/stretch/concentration
    machinery the static experiments (E3-E5) use.
    """
    #: (lower, higher router name) -> (cost, delay), in first-seen order.
    chosen: Dict[Tuple[str, str], Tuple[float, float]] = {}
    by_name = sorted(network.routing.link_routers(), key=lambda pair: pair[0].name)
    for link, attached in by_name:
        names = sorted(set(attached))
        for index, a in enumerate(names):
            for b in names[index + 1 :]:
                kept = chosen.get((a, b))
                if kept is None or link.delay < kept[1]:
                    chosen[a, b] = (link.cost, link.delay)
    graph = Graph()
    for name in sorted(network.routers):
        graph.add_node(name)
    for (a, b), (cost, delay) in chosen.items():
        graph.add_edge(a, b, cost=cost, delay=delay)
    return graph


def protocol_tree(domain, graph: Graph, group) -> Optional[Tree]:
    """The *actual* tree the protocol built, as a metrics Tree.

    Root is the router owning the group's current primary core
    address; edges come from the live (child, parent) FIB relations.
    Returns None when the group has no tree yet.
    """
    cores = domain.coordinator.cores_for(group)
    if not cores:
        return None
    root = domain.router_of(cores[0])
    if root is None:
        return None
    tree = Tree(graph=graph, root=root)
    for child, parent in domain.tree_edges(group):
        if child == parent:
            continue
        tree.edges.add((child, parent) if child <= parent else (parent, child))
    return tree


def tree_quality(
    domain, graph: Graph, group, member_routers: Sequence[str]
) -> Dict[str, float]:
    """Stretch and traffic concentration of the live tree.

    The paper's own trade-off axes (E4/E5), measured on the protocol's
    real tree rather than the abstract shared-tree model: mean/max
    delay stretch over member-router pairs and max/mean flows per
    loaded link when every member's LAN sources traffic.
    """
    from repro.metrics.concentration import traffic_concentration
    from repro.metrics.delay import summarise_stretch

    members = [m for m in sorted(member_routers)]
    tree = protocol_tree(domain, graph, group)
    if tree is None or not members:
        return {}
    # Restrict to members actually connected to the root: mid-handover
    # (or after a failed one) the FIB relation can be a forest, and the
    # stretch metric requires reachability.
    reachable = set(tree.delay_from(tree.root))
    spanned = [m for m in members if m in reachable]
    if len(spanned) < 2:
        return {}
    stretch_mean, stretch_max = summarise_stretch(graph, tree, spanned, spanned)
    conc_max, conc_mean = traffic_concentration(
        {sender: tree for sender in spanned}, spanned
    )
    return {
        "stretch_mean": stretch_mean,
        "stretch_max": stretch_max,
        "concentration_max": float(conc_max),
        "concentration_mean": conc_mean,
    }


#: Cores announced per group (primary + locality secondaries).
CORE_COUNT = 2
#: Graft-confirmation polls before an unconfirmed graft is abandoned
#: (the transition core list — a safe steady state — then stays
#: announced).  One poll every two PEND-JOIN intervals.
GRAFT_POLLS = 40


@dataclass
class MigrationRecord:
    """One handover, phase by phase (sim times; None = not reached)."""

    group: IPv4Address
    old_cores: Tuple[str, ...]
    new_cores: Tuple[str, ...]
    forced: bool
    announced_at: float
    grafted_at: Optional[float] = None
    retired_at: Optional[float] = None
    abandoned: bool = False
    #: Domain-wide control messages when the handover was announced.
    control_start: int = 0
    #: Control cost once retired (None until then).
    control_cost: Optional[int] = None
    #: Tree quality snapshots (stretch/concentration) around the move.
    quality_before: Dict[str, float] = field(default_factory=dict)
    quality_after: Dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.retired_at is not None


class MigrationCoordinator:
    """Per-group online core migration for a running :class:`CBTDomain`.

    Monitors membership drift via the telemetry registry (the domain's
    ``joined``/``quit``/``flushed`` event counters), re-evaluates the
    locality placement when the membership changed, and executes the
    make-before-break handover described in the module docstring.
    It migrates when the current primary's total-delay objective
    exceeds the best candidate's by ``stretch_threshold`` (the
    stretch-degradation threshold); 1.0 migrates on any improvement.
    """

    def __init__(
        self,
        domain,
        group: IPv4Address,
        stretch_threshold: float,
    ) -> None:
        self.domain = domain
        self.group = group
        self.stretch_threshold = stretch_threshold
        self.graph = network_graph(domain.network)
        self.records: List[MigrationRecord] = []
        self._active: Optional[MigrationRecord] = None
        self._polls_left = 0
        self._drift_mark: Optional[float] = None
        scheduler = domain.network.scheduler
        self._scheduler = scheduler
        scheduler.register(self)
        registry = domain.telemetry.registry
        self._registry = registry
        self._c_migrations = registry.counter("cbt.migration.handovers")
        self._c_abandoned = registry.counter("cbt.migration.abandoned")

    # -- membership and placement ---------------------------------------

    def member_routers(self) -> List[str]:
        """Routers with directly attached members, sorted by name."""
        return sorted(
            name
            for name, protocol in self.domain.protocols.items()
            if protocol.igmp.any_member_subnet(self.group)
        )

    def core_routers(self) -> List[str]:
        """Current announced core list, as router names (primary first)."""
        names = []
        for address in self.domain.coordinator.cores_for(self.group):
            name = self.domain.router_of(address)
            if name is not None:
                names.append(name)
        return names

    def _objective(self, router_name: str, members: Sequence[str]) -> float:
        return self.graph.total_distance(router_name, members, weight="delay")

    def _drift_signal(self) -> float:
        """Registry-derived membership-change odometer."""
        total = self._registry.total
        return (
            total("cbt.router.*.event.joined")
            + total("cbt.router.*.event.quit")
            + total("cbt.router.*.event.flushed")
        )

    def check(self) -> Optional[MigrationRecord]:
        """Drift-gated evaluation: cheap no-op until membership moved."""
        mark = self._drift_signal()
        if mark == self._drift_mark:
            return None
        self._drift_mark = mark
        return self.evaluate()

    def evaluate(self, force: bool = False) -> Optional[MigrationRecord]:
        """Re-run placement; migrate when the primary has gone stale.

        ``force`` skips the stretch-degradation threshold (used by the
        chaos/explore scenarios to pin a handover at a known instant);
        a migration still only happens when the locality placement
        names a *different* primary.
        """
        if self._active is not None:
            return None  # one handover at a time
        members = self.member_routers()
        if not members:
            return None
        ranked = locality_cores(self.graph, members, count=CORE_COUNT)
        current = self.core_routers()
        if not current or ranked[0] == current[0]:
            return None
        if not force:
            best = self._objective(ranked[0], members)
            now_cost = self._objective(current[0], members)
            if best <= 0.0:
                stale = now_cost > 0.0
            else:
                stale = now_cost / best >= self.stretch_threshold
            if not stale:
                return None
        return self.migrate(ranked, forced=force)

    # -- the make-before-break handover ---------------------------------

    def migrate(
        self, new_cores: Sequence[str], forced: bool = True
    ) -> Optional[MigrationRecord]:
        """Announce ``new_cores`` (router names, primary first) and run
        the graft/retire phases.  Returns the in-flight record."""
        if self._active is not None:
            return None
        new_cores = list(dict.fromkeys(new_cores))
        if not new_cores:
            raise ValueError("a migration needs at least one core")
        old_cores = self.core_routers()
        if old_cores and new_cores[0] == old_cores[0]:
            return None  # primary unchanged: nothing to hand over
        members = self.member_routers()
        record = MigrationRecord(
            group=self.group,
            old_cores=tuple(old_cores),
            new_cores=tuple(new_cores),
            forced=forced,
            announced_at=self._scheduler.now,
            control_start=self.domain.control_messages_sent(),
            quality_before=tree_quality(
                self.domain, self.graph, self.group, members
            ),
        )
        # Phase 1 — announce: new primary first, every old core kept
        # listed so the old primary remains a legitimate root while the
        # graft is in flight (the auditor's core-rooted invariant).
        transition = new_cores + [c for c in old_cores if c not in new_cores]
        self.domain.update_group(self.group, transition)
        self.records.append(record)
        self._active = record
        self._c_migrations.inc()
        # Phase 2 — graft the old primary under the new one.
        self._graft()
        self._polls_left = GRAFT_POLLS
        self._scheduler.call_later(self._poll_interval(), self._check_graft)
        return record

    def _poll_interval(self) -> float:
        timers = next(iter(self.domain.protocols.values())).timers
        return timers.pend_join_interval * 2

    def _old_primary_protocol(self):
        record = self._active
        if record is None or not record.old_cores:
            return None
        return self.domain.protocols.get(record.old_cores[0])

    def _graft(self) -> None:
        record = self._active
        protocol = self._old_primary_protocol()
        if record is None or protocol is None:
            return
        new_primary = self.domain.protocols[record.new_cores[0]]
        cores = self.domain.coordinator.cores_for(self.group)
        if protocol is new_primary:
            return
        protocol.graft_toward(self.group, cores)

    def _graft_confirmed(self) -> bool:
        record = self._active
        protocol = self._old_primary_protocol()
        if record is None:
            return False
        if protocol is None or not record.old_cores:
            return True  # no old primary to re-home
        if record.old_cores[0] == record.new_cores[0]:
            return True
        entry = protocol.fib.get(self.group)
        if entry is None:
            return True  # old primary left the tree entirely
        if entry.has_parent:
            return self.group not in protocol.pending
        return False

    def _check_graft(self) -> None:
        record = self._active
        if record is None:
            return
        if self._graft_confirmed():
            record.grafted_at = self._scheduler.now
            self._retire()
            return
        self._polls_left -= 1
        if self._polls_left <= 0:
            # Unconfirmed graft: keep the (safe) transition list
            # announced and give up on retiring the old core.  If the
            # old root lost its state meanwhile, the §6 machinery owns
            # recovery; re-kick the graft once before abandoning.
            record.abandoned = True
            self._active = None
            self._c_abandoned.inc()
            return
        self._graft()  # idempotent: no-ops while a join is pending
        self._scheduler.call_later(self._poll_interval(), self._check_graft)

    def _retire(self) -> None:
        record = self._active
        if record is None:
            return
        # Phase 3 — the old primary has a parent (or is gone): announce
        # the final list without it and let the §2.7 leaf rule take its
        # now-ordinary state off the tree when it is redundant.
        self.domain.update_group(self.group, list(record.new_cores))
        record.retired_at = self._scheduler.now
        record.control_cost = (
            self.domain.control_messages_sent() - record.control_start
        )
        record.quality_after = tree_quality(
            self.domain, self.graph, self.group, self.member_routers()
        )
        protocol = self._old_primary_protocol()
        if protocol is not None:
            protocol._maybe_quit(self.group)
        self._active = None
