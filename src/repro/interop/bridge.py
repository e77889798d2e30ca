"""The CBT <-> other-scheme multicast bridge (spec §10).

A :class:`MulticastBridge` is a dual-homed node: one interface on a
LAN inside the CBT cloud, one on a LAN inside the other (e.g.
DVMRP-style) cloud.  Per bridged group it:

1. announces membership on both LANs (IGMP report, plus an RP/Core
   Report on the CBT side so the local D-DR can join);
2. relays every group data packet heard on one side onto the other,
   re-originated with its own source address;
3. suppresses relay loops with a bounded recently-relayed set.

The relay changes the IP source (it is a re-origination, as any
proxying gateway of the era did), so payload identity — the
application layer's ``(stream_id, sequence)`` — is what end-to-end
checks should compare, not datagram uids.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence, Tuple

from repro.igmp.messages import CoreReport, MembershipQuery, MembershipReport
from repro.netsim.address import IPv4Address
from repro.netsim.engine import Scheduler
from repro.netsim.nic import Interface
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_IGMP

#: How many relayed-packet identities to remember for loop suppression.
RELAY_MEMORY = 4096


class MulticastBridge(Node):
    """Dual-homed relay between two multicast clouds."""

    def __init__(self, name: str, scheduler: Scheduler) -> None:
        super().__init__(name, scheduler)
        #: group -> cores advertised on the CBT side (side A).
        self._bridged: dict = {}
        #: vif of the CBT-side interface (set by :meth:`bridge_group`).
        self._recent: "OrderedDict[Tuple, None]" = OrderedDict()
        self.relayed_a_to_b = 0
        self.relayed_b_to_a = 0
        self.suppressed = 0
        self.register_handler(PROTO_IGMP, self._handle_igmp)
        self.register_default_handler(self._handle_data)
        scheduler.register(self)

    # -- configuration ----------------------------------------------------

    @property
    def side_a(self) -> Interface:
        """The CBT-side interface (first attached)."""
        return self.interfaces[0]

    @property
    def side_b(self) -> Interface:
        """The other-scheme interface (second attached)."""
        return self.interfaces[1]

    def bridge_group(
        self, group: IPv4Address, cores: Sequence[IPv4Address] = ()
    ) -> None:
        """Start bridging ``group``; ``cores`` is the CBT-side core list."""
        if len(self.interfaces) < 2:
            raise RuntimeError("bridge needs two interfaces before bridging")
        self._bridged[group] = tuple(cores)
        self._announce(self.side_a, group, tuple(cores))
        self._announce(self.side_b, group, ())

    def _announce(
        self,
        interface: Interface,
        group: IPv4Address,
        cores: Tuple[IPv4Address, ...],
    ) -> None:
        if cores:
            interface.send(
                IPDatagram(
                    src=interface.address,
                    dst=group,
                    proto=PROTO_IGMP,
                    payload=CoreReport(group=group, cores=cores),
                    ttl=1,
                )
            )
        interface.send(
            IPDatagram(
                src=interface.address,
                dst=group,
                proto=PROTO_IGMP,
                payload=MembershipReport(group=group),
                ttl=1,
            )
        )

    # -- IGMP: answer queries so membership stays alive ----------------------

    def _handle_igmp(self, node, interface: Interface, datagram: IPDatagram) -> None:
        message = datagram.payload
        if not isinstance(message, MembershipQuery):
            return
        for group, cores in self._bridged.items():
            if message.is_general or message.group == group:
                side_cores = cores if interface is self.side_a else ()
                self._announce(interface, group, side_cores)

    # -- relay ------------------------------------------------------------------

    def _handle_data(self, node, interface: Interface, datagram: IPDatagram) -> None:
        if not datagram.is_multicast or datagram.dst not in self._bridged:
            return
        if interface not in (self.side_a, self.side_b):
            return
        identity = self._identity(datagram)
        if identity in self._recent:
            self.suppressed += 1
            return
        self._remember(identity)
        out = self.side_b if interface is self.side_a else self.side_a
        if interface is self.side_a:
            self.relayed_a_to_b += 1
        else:
            self.relayed_b_to_a += 1
        # Application-layer re-origination: the packet starts a fresh
        # life in the other cloud with a fresh TTL (the CBT side
        # delivers onto member LANs with TTL 1, which must not leak
        # into the other domain's hop budget).
        out.send(
            IPDatagram(
                src=out.address,
                dst=datagram.dst,
                proto=datagram.proto,
                payload=datagram.payload,
                ttl=64,
            )
        )

    def _identity(self, datagram: IPDatagram) -> Tuple:
        payload = datagram.payload
        inner = getattr(payload, "payload", None)
        stream = getattr(inner, "stream_id", None)
        sequence = getattr(inner, "sequence", None)
        if stream is not None:
            return (datagram.dst, stream, sequence)
        return (datagram.dst, datagram.uid)

    def _remember(self, identity: Tuple) -> None:
        self._recent[identity] = None
        while len(self._recent) > RELAY_MEMORY:
            self._recent.popitem(last=False)
