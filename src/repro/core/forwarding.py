"""CBT data-packet forwarding (spec §4, §5, §7).

Implements both forwarding modes:

* **native mode** (§4) — data packets traverse tree branches as plain
  IP multicasts; valid only inside CBT-only clouds.  Interfaces
  configured as tunnels (``mode='cbt'``) still get IP-over-IP
  encapsulation.
* **CBT mode** (§5) — data carries the Figure-7 CBT header between
  routers: CBT unicast across tunnels/point-to-point links, CBT
  multicast when several tree neighbours share an interface, and
  native IP multicast (TTL 1) onto directly connected subnets with
  member presence.

Loop protection follows §7: the first on-tree router sets the header's
on-tree field to 0xff, and any router receiving an on-tree packet over
a non-tree interface discards it immediately.

One deliberate deviation, noted in DESIGN.md: the spec's CBT-multicast
optimisation can duplicate packets when the *sender's* tree neighbour
shares the outgoing interface, so we only use it when no excluded
neighbour sits on that interface; ``use_cbt_multicast=False`` disables
it entirely (the forwarding benchmark measures both).

Each mode has one fan-out method, which sends from the downloaded
:class:`KernelEntry` and delivers onto member subnets in the same
frame: :meth:`DataPlane._forward_cbt` serves every CBT-mode caller (an
on-tree hop, the first on-tree router, a local origin or tunnel arrival
in CBT mode), :meth:`DataPlane._forward_native` the native ones.  A
CBT hop costs one copy of the packet — :meth:`CBTDataPacket.decremented`,
which carries the wire size it derived once — and one datagram per
neighbour (docs/PERFORMANCE.md, "Decision record: a CBT hop is one copy
and one fan-out frame; a datagram carries its wire size").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.constants import OFF_TREE, ON_TREE
from repro.core.kernel import KernelEntry
from repro.core.messages import CBTDataPacket
from repro.netsim.address import IPv4Address
from repro.netsim.nic import Interface
from repro.netsim.packet import (
    IPDatagram,
    LOCAL_DELIVERY_TTL,
    PROTO_CBT,
    PROTO_IGMP,
    PROTO_IPIP,
)


@dataclass
class ForwardingStats:
    """Data-plane counters, read by tests and benchmarks."""

    native_forwards: int = 0
    cbt_unicasts: int = 0
    cbt_multicasts: int = 0
    member_deliveries: int = 0
    encapsulations: int = 0
    decapsulations: int = 0
    nonmember_originations: int = 0
    intercepts: int = 0
    discards_offtree: int = 0
    discards_ttl: int = 0
    discards_not_local: int = 0
    discards_no_mapping: int = 0

    def total_router_work(self) -> int:
        """Per-packet work units: every forward or deliver operation."""
        return (
            self.native_forwards
            + self.cbt_unicasts
            + self.cbt_multicasts
            + self.member_deliveries
        )


class DataPlane:
    """The forwarding engine for one CBT router.

    Forwards from the :class:`KernelEntry` each FIB change downloads
    (spec §3) and the IGMP membership database that the control plane
    (:class:`repro.core.router.CBTProtocol`) maintains; never mutates
    either.
    """

    def __init__(self, protocol) -> None:
        self.protocol = protocol
        self.router = protocol.router
        self.fib = protocol.fib
        self.stats = ForwardingStats()

    # -- entry points ----------------------------------------------------------

    def forward_multicast(self, router, arrival: Interface, datagram: IPDatagram) -> None:
        """Router hook for non-link-local multicast arrivals."""
        if datagram.proto == PROTO_IGMP:
            return  # control, handled by the IGMP agent
        if datagram.proto == PROTO_CBT:
            packet = datagram.payload
            if isinstance(packet, CBTDataPacket):
                self._receive_cbt(arrival, packet, datagram.src, True)
            return
        self._handle_native(arrival, datagram)

    def handle_cbt_unicast(self, router, arrival: Interface, datagram: IPDatagram) -> None:
        """The router's PROTO_CBT handler: a datagram addressed to it."""
        if datagram.is_multicast:
            return  # :meth:`forward_multicast` handles these
        packet = datagram.payload
        if isinstance(packet, CBTDataPacket):
            self._receive_cbt(arrival, packet, datagram.src, False)

    def handle_ipip(self, arrival: Interface, datagram: IPDatagram) -> None:
        """IP-over-IP tunnel arrival (native-mode tunnels, §4)."""
        inner = datagram.payload
        if isinstance(inner, IPDatagram) and inner.is_multicast:
            self.stats.decapsulations += 1
            self._handle_native(arrival, inner, tunnel_arrival=True)

    def intercept_unicast(self, router, arrival: Interface, datagram: IPDatagram) -> bool:
        """First-on-tree-router interception of non-member-sender packets.

        A packet travelling toward a core with the on-tree field still
        0x00 is grabbed by the first on-tree router it crosses (§7);
        an on-tree-marked packet crossing an off-tree router is a
        routing accident and is discarded.
        """
        if datagram.proto != PROTO_CBT:
            return False
        packet = datagram.payload
        if not isinstance(packet, CBTDataPacket):
            return False
        entry = self.fib.by_group.get(packet.group)
        if entry is None:
            if packet.on_tree == ON_TREE:
                self.stats.discards_offtree += 1
                return True  # §7: wandered off-tree; discard
            return False  # keep unicasting toward the core
        self.stats.intercepts += 1
        self._receive_cbt(arrival, packet, datagram.src, False)
        return True

    # -- native data ------------------------------------------------------------

    def _handle_native(
        self, arrival: Interface, datagram: IPDatagram, tunnel_arrival: bool = False
    ) -> None:
        group = datagram.dst
        entry = self.fib.by_group.get(group)
        vif = arrival.vif
        local_origin = arrival.on_same_network(datagram.src) and not tunnel_arrival

        if local_origin:
            # Per §2.6 the router holding the group's FIB entry (the
            # G-DR) is "the only router on the LAN that has an upstream
            # forwarding entry": holding one is the responsibility
            # marker.  Without one, only the LAN's D-DR sends it on.
            if entry is None:
                self._originate_nonmember(arrival, datagram)
                return
        else:
            # Not locally originated: only legitimate in native mode over
            # a tree interface (§7); everything else is discarded (§5
            # rule 1).
            if entry is None or vif not in entry.kernel.tree_vifs:
                self.stats.discards_not_local += 1
                return
            if self.protocol.mode != "native" and not tunnel_arrival:
                self.stats.discards_not_local += 1
                return
            if datagram.ttl <= 1:
                self.stats.discards_ttl += 1
                return
            datagram = datagram.decremented()
        kernel = entry.kernel
        if self.protocol.mode == "cbt":
            self.stats.encapsulations += 1
            packet = CBTDataPacket(
                group, self._core_hint(group), datagram.src, datagram, ON_TREE,
                datagram.ttl,
            )
            # The arrival interface had the packet first: no member
            # delivery, and no tree neighbour there needs it again.
            self._forward_cbt(kernel, packet, vif, vif, None)
        else:
            self._forward_native(kernel, datagram, vif)

    # -- CBT-mode data --------------------------------------------------------------

    def _receive_cbt(
        self,
        arrival: Interface,
        packet: CBTDataPacket,
        outer_src: IPv4Address,
        was_multicast: bool,
    ) -> None:
        if packet.ip_ttl <= 1:
            self.stats.discards_ttl += 1
            return
        entry = self.fib.by_group.get(packet.group)
        if entry is None:
            # Off-tree router: §7 discards on-tree-marked packets; a
            # still-off-tree packet addressed to us means we are the
            # target core of a non-member sender but have no tree yet.
            self.stats.discards_offtree += 1
            return
        kernel = entry.kernel
        vif = arrival.vif
        if packet.on_tree == ON_TREE:
            if vif not in kernel.tree_vifs:
                self.stats.discards_offtree += 1
                return
            # A CBT multicast reached every tree neighbour on the
            # arrival interface; a CBT unicast reached only us, so
            # other neighbours on that interface still need a copy.
            self._forward_cbt(
                kernel,
                packet.decremented(),
                vif,
                vif if was_multicast else None,
                outer_src,
            )
        else:
            # First on-tree router: set the on-tree field (§7) and span
            # the whole tree; nobody has delivered anywhere yet.
            self._forward_cbt(
                kernel, packet.decremented().marked_on_tree(), None, None, None
            )

    # -- non-member sending -----------------------------------------------------------

    def _originate_nonmember(self, arrival: Interface, datagram: IPDatagram) -> None:
        """Off-tree D-DR encapsulates local multicast toward a core (§5.1)."""
        if not self.protocol.dr_election.is_default_dr(arrival):
            return
        if self.protocol.has_gdr(arrival.vif, datagram.dst):
            return  # the on-LAN G-DR (proxy-ack sender) forwards instead
        cores = self.protocol.cores_for(datagram.dst)
        if not cores:
            self.stats.discards_no_mapping += 1
            return
        core = cores[0]
        packet = CBTDataPacket(
            group=datagram.dst,
            core=core,
            origin=datagram.src,
            inner=datagram,
            on_tree=OFF_TREE,
            ip_ttl=datagram.ttl,
        )
        self.stats.nonmember_originations += 1
        self.stats.encapsulations += 1
        self.router.originate(
            IPDatagram(
                src=self.router.primary_address,
                dst=core,
                proto=PROTO_CBT,
                payload=packet,
            )
        )

    # -- fan-out -------------------------------------------------------------------

    def _forward_cbt(
        self,
        kernel: KernelEntry,
        packet: CBTDataPacket,
        arrival_vif: Optional[int],
        exclude_vif: Optional[int],
        exclude_address: Optional[IPv4Address],
    ) -> None:
        """Send ``packet`` to its tree neighbours and its inner datagram
        onto member subnets (§5), in one frame.

        ``exclude_vif`` / ``exclude_address`` identify where the packet
        came from; tree neighbours there already have it.  The
        ``arrival_vif`` (``None`` at the first on-tree router, where
        nobody has delivered yet) gets no member delivery and no CBT
        multicast: a multicast there would hand the packet back to its
        sender.
        """
        interfaces = self.router.interfaces
        stats = self.stats
        group = kernel.group
        multicast = self.protocol.use_cbt_multicast
        for vif, addresses in kernel.fanout:
            if vif == exclude_vif:
                continue
            interface = interfaces[vif]
            if (
                multicast
                and vif != arrival_vif
                and len(addresses) > 1  # the usual lone neighbour: no count()
                and len(addresses) - addresses.count(exclude_address) > 1
            ):
                # CBT multicast: one transmission reaches every tree
                # neighbour on this interface (§5).  Hosts discard it
                # because they do not recognise protocol 7.
                stats.cbt_multicasts += 1
                interface.send(IPDatagram(interface.address, group, PROTO_CBT, packet, 1))
                continue
            for address in addresses:
                if address == exclude_address:
                    continue
                stats.cbt_unicasts += 1
                interface.send(
                    IPDatagram(interface.address, address, PROTO_CBT, packet), address
                )
        inner = packet.inner
        for vif in self.protocol.igmp.database.interfaces_with(group):
            if vif == arrival_vif:
                continue
            interface = interfaces[vif]
            if interface.on_same_network(inner.src):
                continue  # the origin subnet had the packet first (§5)
            stats.member_deliveries += 1
            interface.send(inner.with_ttl(LOCAL_DELIVERY_TTL))

    def _forward_native(
        self, kernel: KernelEntry, inner: IPDatagram, arrival_vif: int
    ) -> None:
        """Send ``inner`` to every tree neighbour off ``arrival_vif``
        and onto member subnets (§4), in one frame.

        Native arrivals name no sending neighbour: exclusion is per
        interface.
        """
        interfaces = self.router.interfaces
        stats = self.stats
        sent_vifs = 0  # one bit per vif already multicast onto
        for address, vif in kernel.targets:
            if vif == arrival_vif:
                continue
            interface = interfaces[vif]
            if interface.mode == "cbt":
                # Tunnel inside a native-mode cloud: IP-over-IP (§4).
                stats.encapsulations += 1
                interface.send(
                    IPDatagram(interface.address, address, PROTO_IPIP, inner), address
                )
                continue
            if sent_vifs >> vif & 1:
                continue  # one native multicast covers the whole LAN
            sent_vifs |= 1 << vif
            stats.native_forwards += 1
            interface.send(inner)
        for vif in self.protocol.igmp.database.interfaces_with(kernel.group):
            if vif == arrival_vif or sent_vifs >> vif & 1:
                continue  # the LAN heard it already, or from the loop above
            interface = interfaces[vif]
            if interface.on_same_network(inner.src):
                continue  # the origin subnet had the packet first (§5)
            stats.member_deliveries += 1
            interface.send(inner.with_ttl(LOCAL_DELIVERY_TTL))

    def _core_hint(self, group: IPv4Address) -> IPv4Address:
        cores = self.protocol.cores_for(group)
        return cores[0] if cores else IPv4Address("0.0.0.0")
