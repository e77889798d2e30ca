"""IP and UDP datagram model.

Packets in the simulator are immutable dataclasses rather than raw
bytes; the CBT/IGMP message payloads they carry do, however, provide
byte-accurate ``encode``/``decode`` per the spec (see
:mod:`repro.core.messages`), so wire formats remain testable without
paying serialisation cost on every simulated hop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from ipaddress import IPv4Address
from typing import Any, Optional

#: IP protocol numbers used in the simulation.
PROTO_IGMP = 2
PROTO_IPIP = 4  # IP-over-IP encapsulation (native-mode tunnels)
PROTO_UDP = 17
PROTO_CBT = 7  # CBT-mode encapsulation; hosts do not recognise it (spec §5)

#: Default TTL for locally originated datagrams.
DEFAULT_TTL = 64

#: TTL used when a CBT router multicasts onto a member subnet (spec §5).
LOCAL_DELIVERY_TTL = 1

_packet_ids = itertools.count(1)


@dataclass(frozen=True)
class UDPDatagram:
    """UDP payload carried inside an :class:`IPDatagram`."""

    sport: int
    dport: int
    payload: Any

    def __post_init__(self) -> None:
        for name, port in (("sport", self.sport), ("dport", self.dport)):
            if not 0 < port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")


@dataclass(frozen=True)
class IPDatagram:
    """An IPv4 datagram travelling through the simulator.

    ``payload`` is protocol-dependent: a :class:`UDPDatagram` for
    ``PROTO_UDP``, an IGMP message object for ``PROTO_IGMP``, a
    :class:`repro.core.messages.CBTDataPacket` for ``PROTO_CBT``, an
    inner :class:`IPDatagram` for ``PROTO_IPIP``, or opaque application
    bytes.

    ``uid`` identifies the original datagram across encapsulations and
    hops — metrics use it to count distinct deliveries of one packet.
    """

    src: IPv4Address
    dst: IPv4Address
    proto: int
    payload: Any
    ttl: int = DEFAULT_TTL
    uid: int = field(default_factory=lambda: next(_packet_ids))
    #: Whether ``dst`` is class D (224.0.0.0/4); derived, read on every hop.
    is_multicast: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"TTL out of range: {self.ttl}")
        object.__setattr__(self, "is_multicast", int(self.dst) >> 28 == 0xE)

    def decremented(self) -> "IPDatagram":
        """Copy with TTL reduced by one (same uid)."""
        if self.ttl <= 0:
            raise ValueError("cannot decrement TTL below zero")
        return IPDatagram(
            self.src, self.dst, self.proto, self.payload, self.ttl - 1, self.uid
        )

    def with_ttl(self, ttl: int) -> "IPDatagram":
        """Copy with TTL replaced (same uid)."""
        return IPDatagram(self.src, self.dst, self.proto, self.payload, ttl, self.uid)

    def size_bytes(self) -> int:
        """Approximate on-wire size, for bandwidth accounting.

        20 bytes of IP header plus the payload's own estimate; payloads
        lacking a ``size_bytes`` method count a nominal 512 bytes of
        application data.
        """
        header = 20
        payload = self.payload
        if isinstance(payload, UDPDatagram):
            inner = payload.payload
            if isinstance(inner, (bytes, bytearray)):
                return header + 8 + len(inner)
            return header + 8 + getattr(inner, "size_bytes", lambda: 512)()
        if isinstance(payload, IPDatagram):
            return header + payload.size_bytes()
        if isinstance(payload, (bytes, bytearray)):
            return header + len(payload)
        return header + getattr(payload, "size_bytes", lambda: 512)()


def make_udp(
    src: IPv4Address,
    dst: IPv4Address,
    sport: int,
    dport: int,
    payload: Any,
    ttl: int = DEFAULT_TTL,
    uid: Optional[int] = None,
) -> IPDatagram:
    """Convenience constructor for a UDP-in-IP datagram."""
    payload = UDPDatagram(sport=sport, dport=dport, payload=payload)
    if uid is None:
        return IPDatagram(src=src, dst=dst, proto=PROTO_UDP, payload=payload, ttl=ttl)
    return IPDatagram(src, dst, PROTO_UDP, payload, ttl, uid)
