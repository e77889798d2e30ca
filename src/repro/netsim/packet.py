"""IP and UDP datagram model, and the record type every packet is.

Packets in the simulator are immutable tuple-backed records
(:class:`Record`) rather than raw bytes; the CBT/IGMP message payloads
they carry do, however, provide byte-accurate ``encode``/``decode`` per
the spec (see :mod:`repro.core.messages`), so wire formats remain
testable without paying serialisation cost on every simulated hop.

A record is built in one Python frame — ``tuple.__new__`` over the
constructor's arguments — and read through C-level field getters;
building the frozen dataclasses these replaced cost one slot-wrapper
``__setattr__`` call per field, more than the protocol work a HELLO
triggers (docs/PERFORMANCE.md, "Decision record: packets are
tuple records").  Build one through its constructor (``_replace`` does),
never compare one with a bare tuple, and take no weak reference to one.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Any, Optional

from repro.netsim.address import IPv4Address

#: IP protocol numbers used in the simulation.
PROTO_IGMP = 2
PROTO_IPIP = 4  # IP-over-IP encapsulation (native-mode tunnels)
PROTO_UDP = 17
PROTO_CBT = 7  # CBT-mode encapsulation; hosts do not recognise it (spec §5)

#: Default TTL for locally originated datagrams.
DEFAULT_TTL = 64

#: TTL used when a CBT router multicasts onto a member subnet (spec §5).
LOCAL_DELIVERY_TTL = 1

_new = tuple.__new__
_next_packet_id = itertools.count(1).__next__


class _RecordMeta(type):
    """Turns a class body's annotations into tuple storage: a
    ``namedtuple`` base supplies the field getters and, unless the body
    validates in a ``__new__`` of its own, the constructor."""

    def __new__(mcls, name, bases, namespace):
        if bases != (tuple,):
            fields = tuple(namespace.get("__annotations__", ()))
            defaults = [namespace.pop(f) for f in fields if f in namespace]
            bases += (namedtuple(name, fields, defaults=defaults),)
            namespace.setdefault("__slots__", ())
        return super().__new__(mcls, name, bases, namespace)


class Record(tuple, metaclass=_RecordMeta):
    """Immutable value type: annotated fields, stored as a tuple.

    ``_fields`` names what the constructor takes; ``repr``, ``==``,
    ``hash``, pickling and :meth:`_replace` cover exactly those, so a
    slot a ``__new__`` derives past them is never identity: a copy made
    through the constructor (``_replace``, ``copy``, pickling) derives
    it again.  The per-hop copies (``decremented``, ``with_ttl``,
    ``marked_on_tree``) are one ``tuple.__new__`` each: they carry
    ``wire_size``, which depends only on the payload they keep, and
    recompute ``IPDatagram.is_multicast`` from the ``dst`` they copy.
    Equality is class-aware: records of different classes, or a record
    and a bare tuple, are unequal whatever they hold.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self))
        return f"{type(self).__name__}({body})"

    def __eq__(self, other: object) -> bool:
        n = len(self._fields)
        return type(other) is type(self) and self[:n] == other[:n]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[: len(self._fields)])

    def __bool__(self) -> bool:
        return True  # a message, even a fieldless one: not an empty tuple

    def __getnewargs__(self) -> tuple:
        return self[: len(self._fields)]

    def _replace(self, **changes: Any) -> "Record":
        """Copy with ``changes`` applied, through the constructor."""
        return type(self)(**{**dict(zip(self._fields, self)), **changes})


class UDPDatagram(Record):
    """UDP payload carried inside an :class:`IPDatagram`."""

    sport: int
    dport: int
    payload: Any

    def __new__(cls, sport: int, dport: int, payload: Any) -> "UDPDatagram":
        if not 0 < sport <= 0xFFFF:
            raise ValueError(f"sport out of range: {sport}")
        if not 0 < dport <= 0xFFFF:
            raise ValueError(f"dport out of range: {dport}")
        return _new(cls, (sport, dport, payload))


class IPDatagram(Record):
    """An IPv4 datagram travelling through the simulator.

    ``payload`` is protocol-dependent: a :class:`UDPDatagram` for
    ``PROTO_UDP``, an IGMP message object for ``PROTO_IGMP``, a
    :class:`repro.core.messages.CBTDataPacket` for ``PROTO_CBT``, an
    inner :class:`IPDatagram` for ``PROTO_IPIP``, or opaque application
    bytes.

    ``uid`` identifies the original datagram across encapsulations and
    hops — metrics use it to count distinct deliveries of one packet;
    left out, the constructor draws a fresh one.

    ``wire_size`` is the on-wire size, for bandwidth accounting, derived
    once by the constructor: 20 bytes of IP header (28 over UDP) and
    :func:`payload_size` of what the header carries.  Every
    transmission reads it (docs/PERFORMANCE.md, "Decision record: a CBT
    hop is one copy and one fan-out frame; a datagram carries its wire
    size").
    """

    src: IPv4Address
    dst: IPv4Address
    proto: int
    payload: Any
    ttl: int
    uid: int
    #: Whether ``dst`` is class D (224.0.0.0/4); derived, read on every hop.
    is_multicast: bool
    #: Bytes on the wire, header and payload; derived, read on every hop.
    wire_size: int
    _fields = ("src", "dst", "proto", "payload", "ttl", "uid")

    def __new__(
        cls,
        src: IPv4Address,
        dst: IPv4Address,
        proto: int,
        payload: Any,
        ttl: int = DEFAULT_TTL,
        uid: Optional[int] = None,
    ) -> "IPDatagram":
        if not 0 <= ttl <= 255:
            raise ValueError(f"TTL out of range: {ttl}")
        if uid is None:
            uid = _next_packet_id()
        inner, size = payload, 20
        if type(inner) is UDPDatagram:
            inner, size = inner.payload, 28
        # :func:`payload_size`, inlined: every datagram is built here.
        carried = getattr(inner, "wire_size", None)
        if carried is None:
            carried = getattr(inner, "size_bytes", None)
            carried = carried() if carried is not None else nominal_size(inner)
        return _new(
            cls, (src, dst, proto, payload, ttl, uid, dst >> 28 == 0xE, size + carried)
        )

    def decremented(self) -> "IPDatagram":
        """Copy with TTL reduced by one (same uid)."""
        src, dst, proto, payload, ttl, uid, _, size = self
        if ttl <= 0:
            raise ValueError("cannot decrement TTL below zero")
        return _new(
            IPDatagram, (src, dst, proto, payload, ttl - 1, uid, dst >> 28 == 0xE, size)
        )

    def with_ttl(self, ttl: int) -> "IPDatagram":
        """Copy with TTL replaced (same uid)."""
        if not 0 <= ttl <= 255:
            raise ValueError(f"TTL out of range: {ttl}")
        src, dst, proto, payload, _, uid, _, size = self
        return _new(
            IPDatagram, (src, dst, proto, payload, ttl, uid, dst >> 28 == 0xE, size)
        )

    def size_bytes(self) -> int:
        return self.wire_size


def nominal_size(payload: Any) -> int:
    """Bytes to count for a payload that has no ``size_bytes``."""
    return len(payload) if isinstance(payload, (bytes, bytearray)) else 512


def payload_size(payload: Any) -> int:
    """Bytes ``payload`` adds to the record carrying it: the
    ``wire_size`` it carries, else its own ``size_bytes()``, else its
    :func:`nominal_size` (its length if it is bytes, else 512)."""
    size = getattr(payload, "wire_size", None)
    if size is None:
        size = getattr(payload, "size_bytes", None)
        size = size() if size is not None else nominal_size(payload)
    return size


def make_udp(
    src: IPv4Address,
    dst: IPv4Address,
    sport: int,
    dport: int,
    payload: Any,
    ttl: int = DEFAULT_TTL,
) -> IPDatagram:
    """Convenience constructor for a UDP-in-IP datagram."""
    return IPDatagram(src, dst, PROTO_UDP, UDPDatagram(sport, dport, payload), ttl)
