"""CBT packet formats (spec §8).

Two wire formats are implemented byte-for-byte:

* the **CBT header** carried by CBT-mode data packets (Figure 7) —
  32 bytes, including the on-tree marker and one's-complement
  checksum;
* the **CBT control packet header** (Figure 8) — 56 bytes with a
  fixed five-slot core list ("it was an engineering design decision to
  have a fixed maximum number of core addresses, to avoid a
  variable-sized packet"), reinterpreted per Figure 9 for the
  auxiliary echo messages (aggregate flag + group mask).

Inside the simulator, packets carry these records directly (the engine
does not serialise on every hop) — tuple-backed like every packet, see
:class:`repro.netsim.packet.Record` — but ``encode``/``decode`` are
used by the codec tests, the codec benchmark (E9), and anywhere byte
sizes feed bandwidth accounting.
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Sequence, Tuple

from repro.core.constants import (
    AGGREGATE,
    CBT_VERSION,
    MAX_CORES,
    MessageType,
    NOT_AGGREGATE,
    OFF_TREE,
    ON_TREE,
)
from repro.igmp.messages import internet_checksum
from repro.netsim.address import IPv4Address
from repro.netsim.packet import Record, payload_size

#: Byte sizes of the two headers.
CONTROL_HEADER_SIZE = 56
DATA_HEADER_SIZE = 32

_ZERO = IPv4Address("0.0.0.0")

_new = tuple.__new__


class CBTDecodeError(ValueError):
    """Raised when bytes fail to parse as a CBT packet."""


def covering_prefix(groups: Sequence[IPv4Address]) -> Tuple[IPv4Address, IPv4Address]:
    """Smallest (base, mask) prefix covering every address in ``groups``.

    §8.4 lets echo requests aggregate across a *range* of group
    addresses when assignment was coordinated to allow it; the range
    is expressed as a base address plus a standard network mask.
    """
    if not groups:
        raise ValueError("cannot cover an empty group set")
    values = [int(g) for g in groups]
    low, high = min(values), max(values)
    prefix_len = 32
    while prefix_len > 0:
        mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF if prefix_len else 0
        if (low & mask) == (high & mask):
            break
        prefix_len -= 1
    mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF if prefix_len else 0
    return IPv4Address(low & mask), IPv4Address(mask)


def in_masked_range(
    group: IPv4Address, base: IPv4Address, mask: Optional[IPv4Address]
) -> bool:
    """True if ``group`` falls inside the (base, mask) §8.4 range."""
    if mask is None:
        return group == base
    return (int(group) & int(mask)) == (int(base) & int(mask))


class CBTControlMessage(Record):
    """A CBT control packet (Figure 8; Figure 9 for auxiliary types).

    ``cores`` is the ordered core list for the group — primary core
    first (spec §1) — carried by every JOIN so that restarted cores
    can rediscover their role (§6.2) and rejoining routers can pick
    alternates (§6.1).  ``target_core`` is the core this message is
    aimed at; for a JOIN_ACK subcode REJOIN-NACTIVE it instead carries
    the converting router's address (§8.3.1).
    """

    msg_type: MessageType
    code: int
    group: IPv4Address
    origin: IPv4Address
    target_core: IPv4Address
    cores: Tuple[IPv4Address, ...]
    aggregate: bool
    group_mask: Optional[IPv4Address]
    version: int

    def __new__(
        cls,
        msg_type: MessageType,
        code: int,
        group: IPv4Address,
        origin: IPv4Address,
        target_core: IPv4Address = _ZERO,
        cores: Tuple[IPv4Address, ...] = (),
        aggregate: bool = False,
        group_mask: Optional[IPv4Address] = None,
        version: int = CBT_VERSION,
    ) -> "CBTControlMessage":
        if len(cores) > MAX_CORES:
            raise ValueError(
                f"at most {MAX_CORES} cores fit a control packet, got {len(cores)}"
            )
        if not 0 <= code <= 0xFF:
            raise ValueError(f"code out of range: {code}")
        return _new(
            cls,
            (msg_type, code, group, origin, target_core, cores, aggregate,
             group_mask, version),
        )

    # -- semantic helpers ---------------------------------------------------

    @property
    def primary_core(self) -> Optional[IPv4Address]:
        return self.cores[0] if self.cores else None

    @property
    def is_auxiliary(self) -> bool:
        return self.msg_type in (MessageType.ECHO_REQUEST, MessageType.ECHO_REPLY)

    with_fields = Record._replace

    def size_bytes(self) -> int:
        return CONTROL_HEADER_SIZE

    # -- wire format --------------------------------------------------------

    def encode(self) -> bytes:
        """Serialise per Figure 8 (or Figure 9 when auxiliary)."""
        count_or_aggregate = (
            (AGGREGATE if self.aggregate else NOT_AGGREGATE)
            if self.is_auxiliary
            else len(self.cores)
        )
        head = struct.pack(
            "!BBBBHH",
            (self.version & 0xF) << 4,
            int(self.msg_type),
            self.code,
            count_or_aggregate,
            CONTROL_HEADER_SIZE,
            0,  # checksum placeholder
        )
        if self.is_auxiliary:
            # Figure 9: group id (or range base), group mask, NULL slot.
            mask = int(self.group_mask) if self.group_mask is not None else 0
            middle = struct.pack("!III", int(self.group), mask, 0)
        else:
            middle = struct.pack(
                "!III", int(self.group), int(self.origin), int(self.target_core)
            )
        slots = list(self.cores) + [_ZERO] * (MAX_CORES - len(self.cores))
        core_block = b"".join(struct.pack("!I", int(core)) for core in slots)
        reserved = bytes(16)  # resource reservation + security (T.B.D)
        packet = head + middle + core_block + reserved
        checksum = internet_checksum(packet)
        return packet[:6] + struct.pack("!H", checksum) + packet[8:]


def decode_control(data: bytes) -> CBTControlMessage:
    """Parse a Figure-8/Figure-9 control packet, verifying checksum."""
    if len(data) < CONTROL_HEADER_SIZE:
        raise CBTDecodeError(
            f"control packet too short: {len(data)} < {CONTROL_HEADER_SIZE}"
        )
    if internet_checksum(data[:CONTROL_HEADER_SIZE]) != 0:
        raise CBTDecodeError("control packet checksum mismatch")
    vers_byte, raw_type, code, count = struct.unpack("!BBBB", data[:4])
    (hdr_len,) = struct.unpack("!H", data[4:6])
    if hdr_len != CONTROL_HEADER_SIZE:
        raise CBTDecodeError(f"unexpected header length {hdr_len}")
    try:
        msg_type = MessageType(raw_type)
    except ValueError as exc:
        raise CBTDecodeError(f"unknown message type {raw_type}") from exc
    version = (vers_byte >> 4) & 0xF
    field_a, field_b, field_c = struct.unpack("!III", data[8:20])
    slots = [
        IPv4Address(struct.unpack("!I", data[20 + 4 * i : 24 + 4 * i])[0])
        for i in range(MAX_CORES)
    ]
    if msg_type in (MessageType.ECHO_REQUEST, MessageType.ECHO_REPLY):
        return CBTControlMessage(
            msg_type=msg_type,
            code=code,
            group=IPv4Address(field_a),
            origin=_ZERO,
            aggregate=count == AGGREGATE,
            group_mask=IPv4Address(field_b) if field_b else None,
            version=version,
        )
    if count > MAX_CORES:
        raise CBTDecodeError(f"core count {count} exceeds {MAX_CORES}")
    return CBTControlMessage(
        msg_type=msg_type,
        code=code,
        group=IPv4Address(field_a),
        origin=IPv4Address(field_b),
        target_core=IPv4Address(field_c),
        cores=tuple(slots[:count]),
        version=version,
    )


class CBTDataPacket(Record):
    """CBT-mode data packet: the Figure-7 header plus the original datagram.

    ``inner`` is the encapsulated original IP datagram (an
    :class:`repro.netsim.packet.IPDatagram` inside the simulator, or
    raw bytes when decoding off the wire).  ``on_tree`` starts 0x00 and
    is flipped to 0xff by the first on-tree router (spec §7); once set
    it never changes, and receiving an on-tree packet over a non-tree
    interface is grounds for an immediate discard.

    The per-hop copies (:meth:`decremented`, :meth:`marked_on_tree`)
    change one header field of a packet the constructor already
    checked, so each is one ``tuple.__new__`` that carries
    ``wire_size`` along: ``inner`` is the same object.
    """

    group: IPv4Address
    core: IPv4Address
    origin: IPv4Address
    inner: Any
    on_tree: int
    ip_ttl: int
    flow_id: int
    version: int
    #: Bytes on the wire, header and ``inner``; derived once per packet.
    wire_size: int
    _fields = (
        "group", "core", "origin", "inner", "on_tree", "ip_ttl", "flow_id", "version"
    )

    def __new__(
        cls,
        group: IPv4Address,
        core: IPv4Address,
        origin: IPv4Address,
        inner: Any,
        on_tree: int = OFF_TREE,
        ip_ttl: int = 64,
        flow_id: int = 0,
        version: int = CBT_VERSION,
    ) -> "CBTDataPacket":
        if on_tree != ON_TREE and on_tree != OFF_TREE:
            raise ValueError(f"on_tree must be 0x00 or 0xff, got {on_tree:#x}")
        if not 0 <= ip_ttl <= 255:
            raise ValueError(f"ip_ttl out of range: {ip_ttl}")
        if not 0 <= flow_id <= 0xFFFFFFFF:
            raise ValueError(f"flow_id exceeds the 32-bit field: {flow_id}")
        size = DATA_HEADER_SIZE + payload_size(inner)
        return _new(
            cls, (group, core, origin, inner, on_tree, ip_ttl, flow_id, version, size)
        )

    @property
    def is_on_tree(self) -> bool:
        return self.on_tree == ON_TREE

    def marked_on_tree(self) -> "CBTDataPacket":
        """Copy with the on-tree field set (first on-tree router does this)."""
        group, core, origin, inner, _, ip_ttl, flow_id, version, size = self
        return _new(
            CBTDataPacket,
            (group, core, origin, inner, ON_TREE, ip_ttl, flow_id, version, size),
        )

    def decremented(self) -> "CBTDataPacket":
        """Copy with the carried IP TTL reduced by one (spec §5)."""
        group, core, origin, inner, on_tree, ip_ttl, flow_id, version, size = self
        if ip_ttl <= 0:
            raise ValueError("cannot decrement TTL below zero")
        return _new(
            CBTDataPacket,
            (group, core, origin, inner, on_tree, ip_ttl - 1, flow_id, version, size),
        )

    def size_bytes(self) -> int:
        return self.wire_size

    def encode_header(self) -> bytes:
        """Serialise the 32-byte Figure-7 header."""
        packet = struct.pack(
            "!BBBBHBBIIIIQ",
            (self.version & 0xF) << 4,
            1,  # type: data
            DATA_HEADER_SIZE,
            self.on_tree,
            0,  # checksum placeholder
            self.ip_ttl,
            0,  # unused
            int(self.group),
            int(self.core),
            int(self.origin),
            self.flow_id,
            0,  # security fields (T.B.D)
        )
        checksum = internet_checksum(packet)
        return packet[:4] + struct.pack("!H", checksum) + packet[6:]

    def encode(self) -> bytes:
        """Header plus inner payload bytes (inner must be bytes-like)."""
        if not isinstance(self.inner, (bytes, bytearray)):
            raise TypeError(
                "encode() requires a bytes inner payload; use encode_header() "
                "for header-only serialisation"
            )
        return self.encode_header() + bytes(self.inner)


def decode_data_header(data: bytes) -> CBTDataPacket:
    """Parse a Figure-7 header; any trailing bytes become ``inner``."""
    if len(data) < DATA_HEADER_SIZE:
        raise CBTDecodeError(
            f"data packet too short: {len(data)} < {DATA_HEADER_SIZE}"
        )
    if internet_checksum(data[:DATA_HEADER_SIZE]) != 0:
        raise CBTDecodeError("data packet checksum mismatch")
    vers_byte, msg_type, hdr_len, on_tree = struct.unpack("!BBBB", data[:4])
    if hdr_len != DATA_HEADER_SIZE:
        raise CBTDecodeError(f"unexpected data header length {hdr_len}")
    ip_ttl = data[6]
    group, core, origin, flow_id = struct.unpack("!IIII", data[8:24])
    try:
        return CBTDataPacket(
            group=IPv4Address(group),
            core=IPv4Address(core),
            origin=IPv4Address(origin),
            inner=data[DATA_HEADER_SIZE:],
            on_tree=on_tree,
            ip_ttl=ip_ttl,
            flow_id=flow_id,
            version=(vers_byte >> 4) & 0xF,
        )
    except ValueError as exc:
        # A checksum-valid header can still carry an on-tree marker that
        # is neither 0x00 nor 0xff; report it as a decode error rather
        # than leaking the constructor's validation error.
        raise CBTDecodeError(f"invalid data header: {exc}") from exc
