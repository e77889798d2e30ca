"""IGMP message types and byte codecs.

Implements the classic IGMP messages (query / report / leave) plus the
IGMPv3 RP/Core-Report from the CBT spec's appendix (Figure 10), with
the CBT authors' proposed amendments: the reserved field becomes the
"target core" index into the core list, and a code value distinguishes
CBT core reports from PIM RP reports.

All messages encode to the wire layout of the appendix figure with a
standard 16-bit one's-complement checksum, and ``decode_igmp`` rejects
corrupted bytes — tests exercise both directions.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple, Union

from repro.netsim.address import IPv4Address
from repro.netsim.packet import Record

IGMP_QUERY = 0x11
IGMP_REPORT = 0x16  # v2-style membership report
IGMP_LEAVE = 0x17
IGMP_CORE_REPORT = 0x30  # RP/Core-Report (appendix, Figure 10)

#: Code value marking a core report as CBT (vs PIM RP) per the appendix.
CORE_REPORT_CODE_CBT = 1
CORE_REPORT_CODE_PIM = 0

#: Default max response delay (seconds) advertised in queries.
DEFAULT_MAX_RESPONSE_TIME = 10.0

_new = tuple.__new__


class IGMPDecodeError(ValueError):
    """Raised when bytes do not parse as a valid IGMP message."""


def internet_checksum(data: bytes) -> int:
    """RFC 1071 16-bit one's-complement checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class MembershipQuery(Record):
    """General (group 0.0.0.0) or group-specific membership query."""

    group: Optional[IPv4Address] = None
    max_response_time: float = DEFAULT_MAX_RESPONSE_TIME

    @property
    def is_general(self) -> bool:
        return self.group is None

    def size_bytes(self) -> int:
        return 8

    def encode(self) -> bytes:
        group = int(self.group) if self.group is not None else 0
        # Max response time in tenths of a second, as in IGMPv2.
        code = min(255, int(self.max_response_time * 10))
        return _encode_simple(IGMP_QUERY, code, group)


class MembershipReport(Record):
    """Host membership report for one group."""

    group: IPv4Address

    def size_bytes(self) -> int:
        return 8

    def encode(self) -> bytes:
        return _encode_simple(IGMP_REPORT, 0, int(self.group))


class Leave(Record):
    """Leave-group message, multicast to ALL-ROUTERS (224.0.0.2)."""

    group: IPv4Address

    def size_bytes(self) -> int:
        return 8

    def encode(self) -> bytes:
        return _encode_simple(IGMP_LEAVE, 0, int(self.group))


class CoreReport(Record):
    """IGMPv3 RP/Core-Report (spec appendix Figure 10, CBT amendments).

    ``cores`` is the ordered core list for the group — the first entry
    is the primary core (spec §1) — and ``target_core`` indexes the
    core a join should be sent to.
    """

    group: IPv4Address
    cores: Tuple[IPv4Address, ...]
    target_core: int
    code: int
    version: int

    def __new__(
        cls,
        group: IPv4Address,
        cores: Tuple[IPv4Address, ...],
        target_core: int = 0,
        code: int = CORE_REPORT_CODE_CBT,
        version: int = 3,
    ) -> "CoreReport":
        if not cores:
            raise ValueError("a core report must list at least one core")
        if not 0 <= target_core < len(cores):
            raise ValueError(
                f"target_core {target_core} out of range for {len(cores)} cores"
            )
        return _new(cls, (group, cores, target_core, code, version))

    def size_bytes(self) -> int:
        return 12 + 4 * len(self.cores)

    def encode(self) -> bytes:
        header = struct.pack(
            "!BBHIBBH",
            IGMP_CORE_REPORT,
            self.code,
            0,  # checksum placeholder
            int(self.group),
            self.version,
            self.target_core,
            len(self.cores),
        )
        body = b"".join(struct.pack("!I", int(core)) for core in self.cores)
        packet = header + body
        checksum = internet_checksum(packet)
        return packet[:2] + struct.pack("!H", checksum) + packet[4:]


IGMPMessage = Union[MembershipQuery, MembershipReport, Leave, CoreReport]


def _encode_simple(msg_type: int, code: int, group: int) -> bytes:
    packet = struct.pack("!BBHI", msg_type, code, 0, group)
    checksum = internet_checksum(packet)
    return packet[:2] + struct.pack("!H", checksum) + packet[4:]


def decode_igmp(data: bytes) -> IGMPMessage:
    """Parse bytes into an IGMP message, verifying the checksum."""
    if len(data) < 8:
        raise IGMPDecodeError(f"IGMP message too short: {len(data)} bytes")
    if internet_checksum(data) != 0:
        raise IGMPDecodeError("IGMP checksum mismatch")
    msg_type, code = data[0], data[1]
    if msg_type == IGMP_QUERY:
        (group_raw,) = struct.unpack("!I", data[4:8])
        group = IPv4Address(group_raw) if group_raw else None
        return MembershipQuery(group=group, max_response_time=code / 10.0)
    if msg_type == IGMP_REPORT:
        (group_raw,) = struct.unpack("!I", data[4:8])
        return MembershipReport(group=IPv4Address(group_raw))
    if msg_type == IGMP_LEAVE:
        (group_raw,) = struct.unpack("!I", data[4:8])
        return Leave(group=IPv4Address(group_raw))
    if msg_type == IGMP_CORE_REPORT:
        if len(data) < 12:
            raise IGMPDecodeError("core report too short")
        group_raw, version, target, count = struct.unpack("!IBBH", data[4:12])
        expected = 12 + 4 * count
        if len(data) < expected:
            raise IGMPDecodeError(
                f"core report truncated: {len(data)} < {expected} bytes"
            )
        cores = tuple(
            IPv4Address(struct.unpack("!I", data[12 + 4 * i : 16 + 4 * i])[0])
            for i in range(count)
        )
        try:
            return CoreReport(
                group=IPv4Address(group_raw),
                cores=cores,
                target_core=target,
                code=code,
                version=version,
            )
        except ValueError as exc:
            # Checksum-valid bytes can still carry an inconsistent core
            # list (count=0, target index past the list); surface those
            # as decode errors, not constructor validation errors.
            raise IGMPDecodeError(f"invalid core report: {exc}") from exc
    raise IGMPDecodeError(f"unknown IGMP type 0x{msg_type:02x}")
