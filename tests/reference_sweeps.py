"""Reference implementations the fast observers are pinned to.

ROADMAP aim 3: every fast path is pinned to a slow reference, and the
reference lives in the tests.  These are the full-sweep readers as
they stood before the observers were made to cost O(tree) — every
router, every interface, every instrument by name, the address map
rebuilt from scratch per call — moved here verbatim (methods of
``CBTDomain`` became functions of ``domain``).  Nothing in ``src/``
imports this module; ``tests/test_observer_references.py`` compares
the two sides for ``==`` — finding texts and order included.

One order the reference never fixed: two of a router's *own* addresses
among the children of a single entry were reported in set-intersection
order, which follows ``str`` hashes and so the process's hash seed.
The fast sweep reports them in ``children`` order; no state visited
holds more than one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.trees import shortest_path_tree
from repro.core.audit import Finding
from repro.core.migration import protocol_tree
from repro.metrics.delay import summarise_stretch
from repro.netsim.address import IPv4Address
from repro.telemetry.conservation import (
    LATE_REASON,
    NODE_REASONS,
    PRE_WIRE_REASONS,
    _msg_drops,
    _msg_value,
    cbt_conservation,
    label_conservation,
    scheduler_conservation,
)
from repro.telemetry.registry import MetricsRegistry
from repro.topology.graph import Graph
from repro.workloads.probe import QualitySample, histogram_percentiles


def from_scratch_index(domain) -> Dict[IPv4Address, str]:
    """Interface address -> router name, built from scratch."""
    owner: Dict[IPv4Address, str] = {}
    for name, protocol in domain.protocols.items():
        for interface in protocol.router.interfaces:
            owner[interface.address] = name
    return owner


class FromScratchIndex:
    """``domain`` with ``router_of`` answered from a map rebuilt for
    this view — the reference side for readers whose only change was
    to read ``CBTDomain.router_of`` (``audit_domain``, the explorer's
    oracles)."""

    def __init__(self, domain) -> None:
        self._domain = domain
        self.router_of = from_scratch_index(domain).get

    def __getattr__(self, name):
        return getattr(self._domain, name)


def control_messages_sent(domain) -> int:
    """One ``cbt.router.<name>.tx.*`` pattern read per router, less its
    HELLOs."""
    registry = domain.telemetry.registry
    total = 0
    for name in domain.protocols:
        prefix = f"cbt.router.{name}.tx."
        total += registry.total(prefix + "*") - registry.value(prefix + "hello")
    return int(total)


# -- core/audit.py -----------------------------------------------------------


def _crashed(protocol) -> bool:
    """A node with every interface down is frozen mid-crash; its state
    is unreachable and deliberately excluded from invariant checks."""
    return all(not interface.up for interface in protocol.router.interfaces)


def check_invariants(domain, now: Optional[float] = None) -> List[Finding]:
    """Error-only invariant sweep for a (possibly mid-fault) domain.

    Invariants checked:

    * parent/child symmetry — a router's parent must list it as a child;
    * acyclicity — parent pointers never loop (among live routers);
    * core-rooted — a parentless on-tree router either owns a core
      address for the group or is actively re-attaching (pending join,
      rejoin attempt, or quit in progress); anything else is a stranded
      subtree root or an orphaned FIB entry;
    * bounded pending joins — transient state must carry a live expiry
      timer and never outlive EXPIRE-PENDING-JOIN by more than a
      retransmission interval;
    * bounded quits — a group marked quitting must have a live retry
      timer driving it.

    Routers whose interfaces are all down (crashed) are skipped, as are
    relationships that reference them: their state is frozen and will
    be re-audited once they restart.
    """
    if now is None:
        now = domain.network.scheduler.now
    findings: List[Finding] = []
    address_owner: Dict[IPv4Address, str] = {}
    live: Dict[str, object] = {}
    crashed_names: Set[str] = set()
    for name, protocol in domain.protocols.items():
        for interface in protocol.router.interfaces:
            address_owner[interface.address] = name
        if _crashed(protocol):
            crashed_names.add(name)
        else:
            live[name] = protocol

    for name, protocol in live.items():
        timers = protocol.timers
        own_addresses = {i.address for i in protocol.router.interfaces}
        for entry in protocol.fib:
            group = entry.group
            # Self-references satisfy the symmetry check below (the
            # router vouches for itself), so reject them explicitly: a
            # join delivered back to its sender welds exactly this.
            if entry.has_parent and entry.parent_address in own_addresses:
                findings.append(
                    Finding("error", name, group, "lists itself as parent")
                )
            for child in own_addresses & set(entry.children):
                findings.append(
                    Finding(
                        "error", name, group, f"lists itself ({child}) as a child"
                    )
                )
            if entry.has_parent:
                parent_name = address_owner.get(entry.parent_address)
                if parent_name is None:
                    findings.append(
                        Finding(
                            "error",
                            name,
                            group,
                            f"parent {entry.parent_address} is not a known "
                            "CBT router",
                        )
                    )
                elif parent_name not in crashed_names:
                    parent_entry = domain.protocols[parent_name].fib.get(group)
                    if parent_entry is None or not (
                        own_addresses & set(parent_entry.children)
                    ):
                        findings.append(
                            Finding(
                                "error",
                                name,
                                group,
                                f"parent {parent_name} does not list this "
                                "router as a child",
                            )
                        )
            else:
                in_repair = (
                    group in protocol.pending
                    or group in protocol.rejoins
                    or group in protocol.quits
                )
                if not protocol.is_core_for(group) and not in_repair:
                    if entry.has_children or protocol.igmp.any_member_subnet(
                        group
                    ):
                        findings.append(
                            Finding(
                                "error",
                                name,
                                group,
                                "stranded subtree root: no parent, not a "
                                "core, and no re-attachment in progress",
                            )
                        )
                    else:
                        findings.append(
                            Finding(
                                "error",
                                name,
                                group,
                                "orphaned FIB entry: no parent, children, "
                                "members, or core role",
                            )
                        )
        bound = timers.expire_pending_join + 2 * timers.pend_join_interval
        for group, pend in protocol.pending.items():
            age = now - pend.created_at
            if age > bound:
                findings.append(
                    Finding(
                        "error",
                        name,
                        group,
                        f"pending join is {age:.1f}s old (bound {bound:.1f}s)",
                    )
                )
            if pend.expiry_timer is None or not pend.expiry_timer.pending:
                findings.append(
                    Finding(
                        "error",
                        name,
                        group,
                        "pending join has no live expiry timer (stuck "
                        "transient state)",
                    )
                )
        for group, record in protocol.quits.items():
            timer = record.retry_timer
            if timer is None or not timer.pending:
                findings.append(
                    Finding(
                        "error",
                        name,
                        group,
                        "quit in progress with no live retry timer",
                    )
                )

    findings.extend(_check_live_loops(domain, address_owner, live))
    return findings


def _check_live_loops(domain, address_owner, live) -> List[Finding]:
    """Parent-pointer loop detection restricted to live routers."""
    out: List[Finding] = []
    groups = {
        entry.group for protocol in live.values() for entry in protocol.fib
    }
    for group in sorted(groups, key=int):
        for start in live:
            seen = set()
            current = start
            while current is not None and current not in seen:
                seen.add(current)
                protocol = live.get(current)
                if protocol is None:
                    break  # walk reached a crashed router: frozen, not a loop
                entry = protocol.fib.get(group)
                if entry is None or not entry.has_parent:
                    current = None
                else:
                    current = address_owner.get(entry.parent_address)
            if current is not None and current in seen:
                out.append(
                    Finding(
                        "error", current, group, "parent pointers form a loop"
                    )
                )
                break
    return out


# -- core/bootstrap.py (CBTDomain methods) ---------------------------------------


def tree_edges(domain, group: IPv4Address) -> List[Tuple[str, str]]:
    """(child, parent) router-name pairs for the group's tree."""
    by_address = {}
    for name, protocol in domain.protocols.items():
        for interface in protocol.router.interfaces:
            by_address[interface.address] = name
    edges = []
    for name, protocol in domain.protocols.items():
        parent = protocol.tree_parent(group)
        if parent is not None:
            edges.append((name, by_address.get(parent, str(parent))))
    return sorted(edges)


# -- chaos/scenarios.py (ChaosContext.tree_links) ---------------------------------


def link_between(network, a: str, b: str) -> Optional[str]:
    """Name of a link directly joining routers ``a`` and ``b``."""
    for name in sorted(network.links):
        nodes = {i.node.name for i in network.links[name].interfaces}
        if a in nodes and b in nodes:
            return name
    return None


def tree_links(network, domain, group: IPv4Address) -> List[str]:
    """Names of links carrying a tree edge, sorted for determinism."""
    names = set()
    for child, parent in domain.tree_edges(group):
        link = link_between(network, child, parent)
        if link is not None:
            names.add(link)
    return sorted(names)


# -- telemetry/conservation.py -----------------------------------------------------


def link_conservation(registry: MetricsRegistry) -> List[str]:
    """Per link: every transmit attempt is a wire tx or a reasoned drop,
    and every scheduled delivery is delivered, late-dropped, or still
    in flight (never negative)."""
    violations = []
    links = set()
    for name in registry.matching("netsim.link.*.attempts"):
        links.add(name.split(".")[2])
    for link in sorted(links):
        base = f"netsim.link.{link}"
        attempts = registry.value(f"{base}.attempts")
        tx = registry.value(f"{base}.tx_packets")
        pre_drops = registry.total(f"{base}.drop.*") - registry.value(
            f"{base}.drop.{LATE_REASON}"
        )
        if attempts != tx + pre_drops:
            violations.append(
                f"link {link}: attempts {attempts} != "
                f"tx {tx} + pre-wire drops {pre_drops}"
            )
        fanout = registry.value(f"{base}.fanout")
        rx = registry.value(f"{base}.rx_packets")
        late = registry.value(f"{base}.drop.{LATE_REASON}")
        in_flight = fanout - rx - late
        if in_flight < 0:
            violations.append(
                f"link {link}: negative in-flight ({fanout} scheduled, "
                f"{rx} delivered, {late} late drops)"
            )
    return violations


# -- the statistics read by name and pattern, as before they were attributes ---------
#
# Until the per-entity statistics became attribute families, every law
# below read them through registry names and pattern queries, the quality
# probe built its graph link by link and asked the registry for its
# histograms at every sample.  ``tests/test_observer_references.py``
# holds ``check_conservation`` and ``QualityProbe.sample`` to these.


#: payload label -> protocol-level tx counter pattern for IGMP.
IGMP_TX_PATTERNS = {
    "MembershipQuery": "igmp.router.*.tx.query",
    "MembershipReport": "igmp.host.*.tx.report",
    "Leave": "igmp.host.*.tx.leave",
    "CoreReport": "igmp.host.*.tx.core_report",
}

IGMP_RX_PATTERNS = {
    "MembershipQuery": "igmp.*.rx.query",
    "MembershipReport": "igmp.router.*.rx.report",
    "Leave": "igmp.router.*.rx.leave",
    "CoreReport": "igmp.router.*.rx.core_report",
}

def igmp_conservation(registry: MetricsRegistry) -> List[str]:
    """IGMP tx-side accounting (all IGMP is link-local multicast, so
    the rx side is bounded by wire deliveries rather than equal)."""
    violations = []
    for label, pattern in IGMP_TX_PATTERNS.items():
        proto_tx = registry.total(pattern)
        wire_tx = _msg_value(registry, label, "tx")
        unwired = _msg_drops(registry, label, PRE_WIRE_REASONS + NODE_REASONS)
        if proto_tx != wire_tx + unwired:
            violations.append(
                f"{label}: protocol tx {proto_tx} != wire tx {wire_tx} "
                f"+ pre-wire/node drops {unwired}"
            )
        proto_rx = registry.total(IGMP_RX_PATTERNS[label])
        wire_rx = _msg_value(registry, label, "rx")
        if proto_rx > wire_rx:
            violations.append(
                f"{label}: protocol rx {proto_rx} exceeds wire deliveries {wire_rx}"
            )
    return violations


def fib_conservation(registry: MetricsRegistry, protocols: Dict) -> List[str]:
    """Per router: FIB adds − removes == live entries, and every live
    entry's downloaded kernel entry equals a fresh compile of it — a
    write that bypassed the mutators shows here (CBT protocols only —
    comparator engines keep their own non-FIB state)."""
    violations = []
    for name, protocol in sorted(protocols.items()):
        if not hasattr(protocol, "fib"):
            continue
        adds = registry.value(f"cbt.router.{name}.fib_adds")
        removes = registry.value(f"cbt.router.{name}.fib_removes")
        live = len(protocol.fib)
        if adds - removes != live:
            violations.append(
                f"router {name}: fib adds {adds} - removes {removes} "
                f"!= live entries {live}"
            )
        for entry in protocol.fib:
            if entry.kernel != type(entry.kernel).from_user_entry(entry):
                violations.append(
                    f"router {name}: group {entry.group} forwards from a "
                    f"stale download ({entry.kernel} for {entry})"
                )
    return violations


def histogram_conservation(registry: MetricsRegistry) -> List[str]:
    """Bucket counts sum to the observation count, and join-latency
    observations match the joins-completed counter."""
    violations = []
    for histogram in registry.histograms_matching("*"):
        if sum(histogram.bucket_counts) != histogram.count:
            violations.append(
                f"histogram {histogram.name}: bucket sum "
                f"{sum(histogram.bucket_counts)} != count {histogram.count}"
            )
    for histogram in registry.histograms_matching("cbt.router.*.join_latency"):
        router = histogram.name.split(".")[2]
        completed = registry.value(f"cbt.router.{router}.joins_completed")
        if histogram.count != completed:
            violations.append(
                f"histogram {histogram.name}: count {histogram.count} "
                f"!= joins_completed {completed}"
            )
    return violations


def membership_conservation(registry: MetricsRegistry, protocols: Dict) -> List[str]:
    """Per router: membership gains − losses == live (vif, group) pairs,
    and the group index the data plane reads agrees with them."""
    violations = []
    for name, protocol in sorted(protocols.items()):
        agent = getattr(protocol, "igmp", None)
        if agent is None:
            continue
        gains = registry.value(f"igmp.router.{name}.membership_gains")
        losses = registry.value(f"igmp.router.{name}.membership_losses")
        live = sum(
            len(groups) for groups in agent.database._by_interface.values()
        )
        if gains - losses != live:
            violations.append(
                f"router {name}: membership gains {gains} - losses {losses} "
                f"!= live memberships {live}"
            )
        database = agent.database
        by_interface = database._by_interface
        for group in sorted(set().union(*by_interface.values())):
            scan = tuple(vif for vif, on in by_interface.items() if group in on)
            if database.interfaces_with(group) != scan:
                violations.append(
                    f"router {name}: group {group} member index "
                    f"{database.interfaces_with(group)} != {scan}"
                )
        if sum(map(len, database._by_group.values())) != live:
            violations.append(f"router {name}: member index holds a dead group")
    return violations


def check_conservation(network, domain=None) -> List[str]:
    """``check_conservation`` with every changed law read as above; the
    label, CBT and scheduler laws are the live ones (they did not
    change)."""
    registry = network.scheduler.telemetry.registry
    violations = []
    violations += link_conservation(registry)
    violations += label_conservation(registry)
    violations += cbt_conservation(registry)
    violations += igmp_conservation(registry)
    violations += histogram_conservation(registry)
    violations += scheduler_conservation(network.scheduler)
    if domain is not None:
        protocols = getattr(domain, "protocols", {})
        violations += fib_conservation(registry, protocols)
        violations += membership_conservation(registry, protocols)
    return violations


def network_graph(network) -> Graph:
    """Abstract metric graph of a realised network's router mesh.

    Routers become nodes; every link contributes pairwise edges (with
    the link's propagation delay) between the routers attached to it,
    so multi-access LANs appear as cliques.  Host-only stub LANs add no
    edges.  The result feeds the same placement/stretch/concentration
    machinery the static experiments (E3-E5) use.
    """
    graph = Graph()
    for name in sorted(network.routers):
        graph.add_node(name)
    for link_name in sorted(network.links):
        link = network.links[link_name]
        routers = sorted(
            {
                interface.node.name
                for interface in link.interfaces
                if interface.node.name in network.routers
            }
        )
        for i, a in enumerate(routers):
            for b in routers[i + 1 :]:
                existing = graph.edge_between(a, b)
                if existing is None or link.delay < existing.delay:
                    graph.add_edge(a, b, cost=link.cost, delay=link.delay)
    return graph


def probe_sample(probe) -> QualitySample:
    """What ``probe.sample()`` returns now, computed on a graph this
    function built (and keeps on the probe) with the join latencies
    pattern-queried and the control count read per router by name;
    appends nothing to ``probe.samples``."""
    graph = probe.__dict__.get("_reference_graph")
    if graph is None:
        graph = probe.__dict__["_reference_graph"] = network_graph(probe.domain.network)
    domain, group = probe.domain, probe.group
    now = domain.network.scheduler.now
    member_routers = probe.member_routers()
    on_tree = len(domain.on_tree_routers(group))

    tree = protocol_tree(domain, graph, group)
    cost_cbt = tree.cost() if tree is not None else 0.0
    stretch_mean = stretch_max = 0.0
    if tree is not None and member_routers:
        dist = tree.delay_from(tree.root)
        spanned = [r for r in member_routers if r in dist]
        if spanned:
            stretch_mean, stretch_max = summarise_stretch(
                graph, tree, [tree.root], spanned, {tree.root: dist}
            )

    cost_spt = 0.0
    if probe.source_router is not None and member_routers:
        reachable_members = [
            r for r in member_routers if r in probe._hops_from_source
        ]
        if reachable_members:
            cost_spt = shortest_path_tree(
                graph, probe.source_router, reachable_members
            ).cost()

    registry = domain.network.telemetry.registry
    join_p50, join_p95, join_p99 = histogram_percentiles(
        registry.histograms_matching("cbt.router.*.join_latency"),
        (0.50, 0.95, 0.99),
    )
    return QualitySample(
        time=now,
        members=len(probe._members),
        on_tree_routers=on_tree,
        tree_cost_cbt=cost_cbt,
        tree_cost_spt=cost_spt,
        stretch_mean=stretch_mean,
        stretch_max=stretch_max,
        control_cbt=control_messages_sent(domain),
        control_dvmrp_model=probe._dvmrp_control,
        control_mospf_model=probe._mospf_control,
        join_p50=join_p50,
        join_p95=join_p95,
        join_p99=join_p99,
    )
