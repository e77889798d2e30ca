"""DVMRP-style flood-and-prune multicast (the paper's main comparator).

The SIGCOMM'93 paper's case for CBT is largely a case *against*
broadcast-and-prune: per-(source, group) state in every router —
including routers with no interested receivers — and periodic
re-flooding of data across the whole topology.  This module implements
the comparator faithfully enough to measure exactly those quantities:

* RPF-checked truncated broadcast of data packets;
* prune messages that travel hop-by-hop back toward the source,
  carrying a lifetime after which flooding resumes;
* grafts that undo prunes when membership appears;
* neighbour discovery probes (so multi-access links know when *all*
  downstream routers have pruned);
* state census (`state_size`) counting (S, G) entries plus prune
  records — the E1 metric.

Simplifications vs RFC 1075, noted in DESIGN.md: unicast routing is
shared with the platform's link-state tables instead of DVMRP's own
RIP-like exchange (both yield shortest paths, which is all RPF needs),
and source keys are host addresses rather than source subnets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.fingerprint import igmp_state, state_digest
from repro.igmp.host import IGMPHostAgent
from repro.igmp.router_side import IGMPConfig, IGMPRouterAgent
from repro.netsim.address import IPv4Address
from repro.netsim.engine import PeriodicTimer
from repro.netsim.nic import Interface
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_IGMP, Record
from repro.routing.neighbours import NeighbourTable
from repro.routing.table import Router
from repro.topology.builder import Network

#: Simulator-local protocol number for DVMRP control messages (real
#: DVMRP rides in IGMP; a distinct number keeps dispatch simple).
PROTO_DVMRP = 200

#: All-DVMRP-routers group (224.0.0.4), link-local.
ALL_DVMRP_ROUTERS = IPv4Address("224.0.0.4")

#: RFC 1075-era default prune lifetime (seconds).
DEFAULT_PRUNE_LIFETIME = 7200.0

PROBE_INTERVAL = 10.0
NEIGHBOUR_HOLD = 35.0


class Probe(Record):
    """Neighbour discovery beacon."""

    def size_bytes(self) -> int:
        return 8


class Prune(Record):
    source: IPv4Address
    group: IPv4Address
    lifetime: float

    def size_bytes(self) -> int:
        return 16


class Graft(Record):
    source: IPv4Address
    group: IPv4Address

    def size_bytes(self) -> int:
        return 12


@dataclass
class ForwardingEntry:
    """(source, group) state: upstream interface + per-downstream prunes."""

    source: IPv4Address
    group: IPv4Address
    upstream_vif: Optional[int]
    #: vif -> {pruning neighbour address -> expiry time}
    prunes: Dict[int, Dict[IPv4Address, float]] = field(default_factory=dict)
    #: True once this router pruned itself toward the source.
    pruned_upstream: bool = False

    def record_prune(self, vif: int, neighbour: IPv4Address, until: float) -> None:
        self.prunes.setdefault(vif, {})[neighbour] = until

    def clear_prune(self, vif: int, neighbour: IPv4Address) -> None:
        self.prunes.get(vif, {}).pop(neighbour, None)

    def unprune(self) -> None:
        self.pruned_upstream = False

    def active_prunes(self, vif: int, now: float) -> Set[IPv4Address]:
        table = self.prunes.get(vif, {})
        expired = [a for a, t in table.items() if t <= now]
        for address in expired:
            del table[address]
        return set(table)

    def state_size(self) -> int:
        """Stored items: the entry itself plus each prune record."""
        return 1 + sum(len(t) for t in self.prunes.values())


@dataclass
class DVMRPStats:
    data_forwards: int = 0
    prunes_sent: int = 0
    grafts_sent: int = 0
    beacons_sent: int = 0
    rpf_drops: int = 0
    pruned_drops: int = 0

    def control_messages(self) -> int:
        return self.prunes_sent + self.grafts_sent


class DenseModeProtocol:
    """What DVMRP and HPIM-DM share on one router: IGMP and the router
    wiring, the (S, G) ``entries``, the neighbour table, the beacon
    ticker and sender, and RPF.  An engine sets ``proto``, the beacon
    ``group`` and ``stats`` (with ``beacons_sent``), and supplies its
    control handler, membership hook, forwarding loop and any upkeep
    its :meth:`_tick` adds to the beacon."""

    def __init__(
        self,
        router: Router,
        interval: float,
        hold: float,
        beacon: Record,
        igmp_config: Optional[IGMPConfig],
    ) -> None:
        self.router = router
        self.igmp = IGMPRouterAgent(router, config=igmp_config)
        self.entries: Dict[Tuple[IPv4Address, IPv4Address], Any] = {}
        self.neighbours = NeighbourTable(hold)
        self._beacon = beacon
        self._ticker = PeriodicTimer(router.scheduler, interval, self._tick)
        router.register_handler(self.proto, self._handle_control)
        router.multicast_forwarder = self
        self.igmp.on_membership_change(self._on_membership_change)
        router.scheduler.register(self)

    def start(self) -> None:
        """Beacon now and every interval; a second call does nothing
        until :meth:`stop`."""
        if self._ticker.running:
            return
        self.igmp.start()
        self._send_beacons()
        self._ticker.start()

    def stop(self) -> None:
        self._ticker.stop()

    def state_size(self) -> int:
        """Stored (S, G) items — the E1 router-state metric."""
        return sum(entry.state_size() for entry in self.entries.values())

    def _tick(self) -> None:
        self._send_beacons()

    def _send_beacons(self) -> None:
        for interface in self.router.interfaces:
            if not interface.up:
                continue
            self.stats.beacons_sent += 1
            interface.send(
                IPDatagram(
                    src=interface.address,
                    dst=self.group,
                    proto=self.proto,
                    payload=self._beacon,
                    ttl=1,
                )
            )

    def _rpf_vif(self, source: IPv4Address) -> Optional[int]:
        route = self.router.best_route(source)
        return route.interface.vif if route is not None else None


class DVMRPProtocol(DenseModeProtocol):
    """Flood-and-prune engine for one router."""

    proto = PROTO_DVMRP
    group = ALL_DVMRP_ROUTERS

    def __init__(
        self,
        router: Router,
        prune_lifetime: float = DEFAULT_PRUNE_LIFETIME,
        igmp_config: Optional[IGMPConfig] = None,
    ) -> None:
        self.prune_lifetime = prune_lifetime
        self.stats = DVMRPStats()
        super().__init__(router, PROBE_INTERVAL, NEIGHBOUR_HOLD, Probe(), igmp_config)

    # -- control messages -------------------------------------------------------

    def _handle_control(self, node: Node, interface: Interface, datagram: IPDatagram) -> None:
        message = datagram.payload
        if isinstance(message, Probe):
            self.neighbours.heard(interface.vif, datagram.src, self.router.scheduler.now)
        elif isinstance(message, Prune):
            self._recv_prune(interface, datagram.src, message)
        elif isinstance(message, Graft):
            self._recv_graft(interface, datagram.src, message)

    def _recv_prune(self, arrival: Interface, src: IPv4Address, prune: Prune) -> None:
        entry = self._entry_for(prune.source, prune.group)
        if entry is None or arrival.vif == entry.upstream_vif:
            return  # prunes only make sense from downstream
        until = self.router.scheduler.now + prune.lifetime
        entry.record_prune(arrival.vif, src, until)
        self._maybe_prune_upstream(entry)

    def _recv_graft(self, arrival: Interface, src: IPv4Address, graft: Graft) -> None:
        entry = self._entry_for(graft.source, graft.group)
        if entry is None:
            return
        entry.clear_prune(arrival.vif, src)
        if entry.pruned_upstream:
            entry.pruned_upstream = False
            self._send_graft_upstream(entry)

    def _on_membership_change(
        self, interface: Interface, group: IPv4Address, present: bool
    ) -> None:
        if not present:
            return
        # Membership appeared: graft every pruned source for the group.
        for entry in self.entries.values():
            if entry.group == group and entry.pruned_upstream:
                entry.pruned_upstream = False
                self._send_graft_upstream(entry)

    # -- data plane --------------------------------------------------------------

    def forward_multicast(self, router: Router, arrival: Interface, datagram: IPDatagram) -> None:
        if datagram.proto in (PROTO_IGMP, PROTO_DVMRP):
            return
        group = datagram.dst
        source = datagram.src
        local_origin = arrival.on_same_network(source)
        entry = self._get_or_create(source, group, local_origin, arrival)
        if not local_origin:
            if entry.upstream_vif != arrival.vif:
                self.stats.rpf_drops += 1
                return
            if datagram.ttl <= 1:
                return
            datagram = datagram.decremented()
        now = self.router.scheduler.now
        self.neighbours.expire(now)  # a silent neighbour is gone once read
        forwarded_anywhere = False
        for interface in self.router.interfaces:
            if interface.vif == arrival.vif or not interface.up:
                continue
            downstream_routers = self.neighbours.live(interface.vif, now)
            has_members = self.igmp.database.has_members(interface, group)
            if not downstream_routers and not has_members:
                continue  # truncated broadcast: silent leaf LAN
            pruned = entry.active_prunes(interface.vif, now)
            if downstream_routers and downstream_routers <= pruned and not has_members:
                self.stats.pruned_drops += 1
                continue
            self.stats.data_forwards += 1
            forwarded_anywhere = True
            interface.send(datagram)
        if not forwarded_anywhere and not local_origin:
            # Leaf router with no interested parties: prune upstream.
            self._maybe_prune_upstream(entry)

    def _get_or_create(
        self,
        source: IPv4Address,
        group: IPv4Address,
        local_origin: bool,
        arrival: Interface,
    ) -> ForwardingEntry:
        key = (source, group)
        entry = self.entries.get(key)
        if entry is None:
            upstream = arrival.vif if not local_origin else self._rpf_vif(source)
            entry = ForwardingEntry(source=source, group=group, upstream_vif=upstream)
            self.entries[key] = entry
        return entry

    def _entry_for(
        self, source: IPv4Address, group: IPv4Address
    ) -> Optional[ForwardingEntry]:
        entry = self.entries.get((source, group))
        if entry is None:
            # A prune/graft can arrive before any data: synthesise the
            # entry from the RPF interface so state stays consistent.
            vif = self._rpf_vif(source)
            if vif is None:
                return None
            entry = ForwardingEntry(source=source, group=group, upstream_vif=vif)
            self.entries[(source, group)] = entry
        return entry

    def _maybe_prune_upstream(self, entry: ForwardingEntry) -> None:
        """Prune toward the source if nothing downstream wants data."""
        if entry.pruned_upstream or entry.upstream_vif is None:
            return
        now = self.router.scheduler.now
        self.neighbours.expire(now)
        for interface in self.router.interfaces:
            if interface.vif == entry.upstream_vif or not interface.up:
                continue
            if self.igmp.database.has_members(interface, entry.group):
                return
            downstream = self.neighbours.live(interface.vif, now)
            if downstream - entry.active_prunes(interface.vif, now):
                return  # an unpruned downstream router remains
        upstream_neighbour = self._upstream_neighbour(entry)
        if upstream_neighbour is None:
            return
        entry.pruned_upstream = True
        self.stats.prunes_sent += 1
        self._send_control(
            Prune(
                source=entry.source,
                group=entry.group,
                lifetime=self.prune_lifetime,
            ),
            upstream_neighbour,
        )
        # Prune state decays; after the lifetime we are floodable again.
        self.router.scheduler.call_later(self.prune_lifetime, entry.unprune)

    def _send_graft_upstream(self, entry: ForwardingEntry) -> None:
        upstream_neighbour = self._upstream_neighbour(entry)
        if upstream_neighbour is None:
            return
        self.stats.grafts_sent += 1
        self._send_control(
            Graft(source=entry.source, group=entry.group), upstream_neighbour
        )

    def _upstream_neighbour(self, entry: ForwardingEntry) -> Optional[IPv4Address]:
        route = self.router.best_route(entry.source)
        if route is None:
            return None
        if route.next_hop is not None:
            return route.next_hop
        # Source is directly connected: no upstream router to prune at.
        return None

    def _send_control(self, message, destination: IPv4Address) -> None:
        # Source from the egress interface so neighbour accounting
        # (probe addresses vs prune senders) matches up.
        route = self.router.best_route(destination)
        src = (
            route.interface.address
            if route is not None
            else self.router.primary_address
        )
        self.router.originate(
            IPDatagram(
                src=src,
                dst=destination,
                proto=PROTO_DVMRP,
                payload=message,
            )
        )


class DenseModeDomain:
    """What DVMRP and HPIM-DM share: a Network (or a named subset of
    it) running ``engine(router)`` on every router and an IGMP agent on
    every host, and the census and cost readers over the engines."""

    def __init__(
        self,
        network: Network,
        engine: Callable[[Router], Any],
        routers: Optional[Sequence[str]] = None,
        hosts: Optional[Sequence[str]] = None,
    ) -> None:
        self.network = network
        router_names = list(routers) if routers is not None else list(network.routers)
        host_names = list(hosts) if hosts is not None else list(network.hosts)
        self.protocols = {name: engine(network.routers[name]) for name in router_names}
        self.host_agents: Dict[str, IGMPHostAgent] = {
            name: IGMPHostAgent(network.hosts[name]) for name in host_names
        }

    def start(self) -> None:
        for protocol in self.protocols.values():
            protocol.start()

    def protocol(self, name: str):
        return self.protocols[name]

    def join_host(self, host_name: str, group: IPv4Address) -> None:
        self.host_agents[host_name].join(group)

    def leave_host(self, host_name: str, group: IPv4Address) -> None:
        self.host_agents[host_name].leave(group)

    def total_state(self) -> int:
        return sum(p.state_size() for p in self.protocols.values())

    def routers_with_state(self) -> int:
        return sum(1 for p in self.protocols.values() if p.entries)

    def control_messages(self) -> int:
        return sum(p.stats.control_messages() for p in self.protocols.values())

    def data_forwards(self) -> int:
        return sum(p.stats.data_forwards for p in self.protocols.values())

    def convergence_findings(self) -> List[str]:
        """Why a settled domain has not converged: soft state owes
        nothing beyond silence."""
        return []


class DVMRPDomain(DenseModeDomain):
    """A Network (or a named subset of it) running flood-and-prune."""

    def __init__(
        self,
        network: Network,
        prune_lifetime: float = DEFAULT_PRUNE_LIFETIME,
        igmp_config: Optional[IGMPConfig] = None,
        routers: Optional[Sequence[str]] = None,
        hosts: Optional[Sequence[str]] = None,
    ) -> None:
        engine = partial(DVMRPProtocol, prune_lifetime=prune_lifetime, igmp_config=igmp_config)
        super().__init__(network, engine, routers, hosts)

    def fingerprint(self) -> str:
        """Stable hash of the domain's (S, G) entries, prunes held (by
        neighbour, not expiry time), neighbours and IGMP membership,
        and of the in-flight tagged deliveries
        (:func:`repro.core.fingerprint.state_digest`)."""
        return state_digest(self, _protocol_state)


def neighbour_state(protocol: DenseModeProtocol) -> Tuple:
    """A dense-mode router's neighbour addresses per vif."""
    return tuple(
        (vif, tuple(sorted(str(addr) for addr in table)))
        for vif, table in sorted(protocol.neighbours.items())
    )


def _protocol_state(name: str, protocol: DVMRPProtocol) -> Tuple:
    """Canonical tuple of one DVMRP router's state."""
    entry_part = tuple(
        (
            str(source),
            str(group),
            entry.upstream_vif,
            entry.pruned_upstream,
            tuple(
                (vif, tuple(sorted(map(str, table)))) for vif, table in sorted(entry.prunes.items())
            ),
        )
        for (source, group), entry in sorted(protocol.entries.items())
    )
    return (name, entry_part, neighbour_state(protocol), igmp_state(protocol))
