"""Codec robustness: round-trips, truncation, bit flips, garbage.

Property-style (seeded ``random.Random``, no external dependencies)
exercise of every wire codec in the repo — each CBT control message
type (Figure 8/9), the CBT data header (Figure 7), and every IGMP
message type (appendix Figure 10).  Two properties are enforced:

* **round-trip**: ``decode(encode(m))`` reproduces the message for
  randomised field values, and re-encoding is byte-stable;
* **typed rejection**: corrupted input — truncation at *every* prefix
  length, *every* single-bit flip, checksum-valid semantic garbage,
  and random byte noise — raises only :class:`CBTDecodeError` /
  :class:`IGMPDecodeError`, never a bare ``ValueError``,
  ``struct.error``, or ``IndexError``.

The checksum-valid corruption cases are the sharp edge: the checksum
passes, so the decoder's own field validation must catch the damage
(zero-length core lists, out-of-range target-core indices, on-tree
markers that are neither 0x00 nor 0xff).
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.core.constants import (
    MAX_CORES,
    OFF_TREE,
    ON_TREE,
    MessageType,
)
from repro.core.messages import (
    CBTControlMessage,
    CBTDataPacket,
    CBTDecodeError,
    CONTROL_HEADER_SIZE,
    DATA_HEADER_SIZE,
    decode_control,
    decode_data_header,
)
from repro.igmp.messages import (
    CORE_REPORT_CODE_CBT,
    CORE_REPORT_CODE_PIM,
    CoreReport,
    IGMPDecodeError,
    Leave,
    MembershipQuery,
    MembershipReport,
    decode_igmp,
    internet_checksum,
)
from repro.netsim.address import IPv4Address

SEED = 0xCB7
CASES = 25  # randomised instances per message type

PRIMARY_TYPES = [
    t
    for t in MessageType
    if t not in (MessageType.ECHO_REQUEST, MessageType.ECHO_REPLY)
]
AUXILIARY_TYPES = [MessageType.ECHO_REQUEST, MessageType.ECHO_REPLY]


def _addr(rng: random.Random) -> IPv4Address:
    return IPv4Address(rng.getrandbits(32))


def _random_control(rng: random.Random, msg_type: MessageType) -> CBTControlMessage:
    if msg_type in AUXILIARY_TYPES:
        aggregate = rng.random() < 0.5
        return CBTControlMessage(
            msg_type=msg_type,
            code=rng.randrange(256),
            group=_addr(rng),
            origin=IPv4Address("0.0.0.0"),
            aggregate=aggregate,
            group_mask=IPv4Address("255.255.255.0") if aggregate else None,
        )
    return CBTControlMessage(
        msg_type=msg_type,
        code=rng.randrange(256),
        group=_addr(rng),
        origin=_addr(rng),
        target_core=_addr(rng),
        cores=tuple(_addr(rng) for _ in range(rng.randrange(MAX_CORES + 1))),
    )


def _random_data_packet(rng: random.Random) -> CBTDataPacket:
    return CBTDataPacket(
        group=_addr(rng),
        core=_addr(rng),
        origin=_addr(rng),
        inner=bytes(rng.getrandbits(8) for _ in range(rng.randrange(64))),
        on_tree=ON_TREE if rng.random() < 0.5 else OFF_TREE,
        ip_ttl=rng.randrange(256),
        flow_id=rng.getrandbits(32),
    )


def _random_igmp(rng: random.Random, kind: str):
    if kind == "query-general":
        return MembershipQuery(group=None, max_response_time=rng.randrange(256) / 10)
    if kind == "query-group":
        return MembershipQuery(
            group=IPv4Address(rng.getrandbits(32) | 1),
            max_response_time=rng.randrange(256) / 10,
        )
    if kind == "report":
        return MembershipReport(group=_addr(rng))
    if kind == "leave":
        return Leave(group=_addr(rng))
    count = rng.randrange(1, MAX_CORES + 1)
    return CoreReport(
        group=_addr(rng),
        cores=tuple(_addr(rng) for _ in range(count)),
        target_core=rng.randrange(count),
        code=rng.choice([CORE_REPORT_CODE_CBT, CORE_REPORT_CODE_PIM]),
    )


IGMP_KINDS = ["query-general", "query-group", "report", "leave", "core-report"]


def _refix(raw: bytearray, offset: int, span: int) -> bytes:
    """Zero the checksum field at ``offset`` and recompute over ``span``."""
    raw[offset : offset + 2] = b"\x00\x00"
    checksum = internet_checksum(bytes(raw[:span]))
    raw[offset : offset + 2] = struct.pack("!H", checksum)
    return bytes(raw)


# -- round-trips ------------------------------------------------------------


@pytest.mark.parametrize("msg_type", PRIMARY_TYPES, ids=lambda t: t.name)
def test_control_roundtrip_primary(msg_type):
    rng = random.Random(SEED + int(msg_type))
    for _ in range(CASES):
        message = _random_control(rng, msg_type)
        encoded = message.encode()
        assert len(encoded) == CONTROL_HEADER_SIZE
        decoded = decode_control(encoded)
        assert decoded == message
        assert decoded.encode() == encoded


@pytest.mark.parametrize("msg_type", AUXILIARY_TYPES, ids=lambda t: t.name)
def test_control_roundtrip_auxiliary(msg_type):
    rng = random.Random(SEED + int(msg_type))
    for _ in range(CASES):
        message = _random_control(rng, msg_type)
        encoded = message.encode()
        decoded = decode_control(encoded)
        assert decoded == message
        assert decoded.aggregate == message.aggregate
        assert decoded.group_mask == message.group_mask
        assert decoded.encode() == encoded


def test_data_header_roundtrip():
    rng = random.Random(SEED)
    for _ in range(CASES):
        packet = _random_data_packet(rng)
        encoded = packet.encode()
        assert len(encoded) == DATA_HEADER_SIZE + len(packet.inner)
        decoded = decode_data_header(encoded)
        assert decoded.group == packet.group
        assert decoded.core == packet.core
        assert decoded.origin == packet.origin
        assert decoded.on_tree == packet.on_tree
        assert decoded.ip_ttl == packet.ip_ttl
        assert decoded.flow_id == packet.flow_id
        assert decoded.inner == packet.inner
        assert decoded.encode() == encoded


@pytest.mark.parametrize("kind", IGMP_KINDS)
def test_igmp_roundtrip(kind):
    rng = random.Random(SEED + hash(kind) % 1000)
    for _ in range(CASES):
        message = _random_igmp(rng, kind)
        encoded = message.encode()
        decoded = decode_igmp(encoded)
        assert type(decoded) is type(message)
        assert decoded.encode() == encoded
        if isinstance(message, MembershipQuery):
            assert decoded.group == message.group
            assert decoded.max_response_time == pytest.approx(
                min(25.5, message.max_response_time), abs=0.05
            )
        elif isinstance(message, CoreReport):
            assert decoded == message
        else:
            assert decoded.group == message.group


# -- truncation -------------------------------------------------------------


def _all_encoded_messages():
    """One encoded specimen per codec family: (bytes, decoder, error)."""
    rng = random.Random(SEED)
    specimens = []
    for msg_type in MessageType:
        specimens.append(
            (_random_control(rng, msg_type).encode(), decode_control, CBTDecodeError)
        )
    specimens.append(
        (_random_data_packet(rng).encode_header(), decode_data_header, CBTDecodeError)
    )
    for kind in IGMP_KINDS:
        specimens.append(
            (_random_igmp(rng, kind).encode(), decode_igmp, IGMPDecodeError)
        )
    return specimens


@pytest.mark.parametrize(
    "encoded,decoder,error",
    _all_encoded_messages(),
    ids=lambda value: getattr(value, "__name__", None) or f"{len(value)}B"
    if not isinstance(value, type)
    else value.__name__,
)
def test_every_truncation_raises_typed_error(encoded, decoder, error):
    for cut in range(len(encoded)):
        with pytest.raises(error):
            decoder(encoded[:cut])


# -- single-bit flips -------------------------------------------------------


@pytest.mark.parametrize(
    "encoded,decoder,error",
    _all_encoded_messages(),
    ids=lambda value: getattr(value, "__name__", None) or f"{len(value)}B"
    if not isinstance(value, type)
    else value.__name__,
)
def test_every_bit_flip_in_checksummed_region_raises(encoded, decoder, error):
    # The one's-complement checksum catches every single-bit flip in
    # the region it covers (a flip changes one 16-bit word by ±2^k,
    # which is never ≡ 0 mod 0xffff).
    span = min(
        len(encoded),
        CONTROL_HEADER_SIZE if decoder is decode_control else len(encoded),
        DATA_HEADER_SIZE if decoder is decode_data_header else len(encoded),
    )
    for byte_index in range(span):
        for bit in range(8):
            corrupted = bytearray(encoded)
            corrupted[byte_index] ^= 1 << bit
            with pytest.raises(error):
                decoder(bytes(corrupted))


# -- checksum-valid semantic corruption -------------------------------------


def test_control_unknown_message_type_rejected():
    raw = bytearray(_random_control(random.Random(SEED), MessageType.JOIN_REQUEST).encode())
    for bad_type in (0, 9, 14, 200):
        raw[1] = bad_type
        with pytest.raises(CBTDecodeError, match="unknown message type"):
            decode_control(_refix(bytearray(raw), 6, CONTROL_HEADER_SIZE))


def test_control_bad_header_length_rejected():
    raw = bytearray(_random_control(random.Random(SEED), MessageType.JOIN_ACK).encode())
    raw[4:6] = struct.pack("!H", CONTROL_HEADER_SIZE + 8)
    with pytest.raises(CBTDecodeError, match="header length"):
        decode_control(_refix(raw, 6, CONTROL_HEADER_SIZE))


def test_control_core_count_overflow_rejected():
    raw = bytearray(_random_control(random.Random(SEED), MessageType.JOIN_REQUEST).encode())
    for bad_count in (MAX_CORES + 1, 17, 255):
        raw[3] = bad_count
        with pytest.raises(CBTDecodeError, match="core count"):
            decode_control(_refix(bytearray(raw), 6, CONTROL_HEADER_SIZE))


def test_data_header_bad_on_tree_marker_rejected():
    # Checksum-valid, but the on-tree byte is neither 0x00 nor 0xff:
    # must surface as a CBTDecodeError, not a dataclass ValueError.
    base = bytearray(_random_data_packet(random.Random(SEED)).encode_header())
    for marker in (0x01, 0x7F, 0x80, 0xFE):
        raw = bytearray(base)
        raw[3] = marker
        with pytest.raises(CBTDecodeError, match="invalid data header"):
            decode_data_header(_refix(raw, 4, DATA_HEADER_SIZE))


def test_data_header_bad_length_rejected():
    raw = bytearray(_random_data_packet(random.Random(SEED)).encode_header())
    raw[2] = DATA_HEADER_SIZE + 4
    with pytest.raises(CBTDecodeError, match="header length"):
        decode_data_header(_refix(raw, 4, DATA_HEADER_SIZE))


def test_igmp_unknown_type_rejected():
    raw = bytearray(MembershipReport(IPv4Address("239.1.2.3")).encode())
    raw[0] = 0x42
    with pytest.raises(IGMPDecodeError, match="unknown IGMP type"):
        decode_igmp(_refix(raw, 2, 8))


def test_core_report_zero_cores_rejected():
    # count=0 passes the length check with no core slots at all; the
    # decoder must reject it as a typed error (a core report without
    # cores is meaningless).
    raw = bytearray(
        struct.pack(
            "!BBHIBBH", 0x30, CORE_REPORT_CODE_CBT, 0, int(IPv4Address("239.0.0.1")), 3, 0, 0
        )
    )
    with pytest.raises(IGMPDecodeError, match="invalid core report"):
        decode_igmp(_refix(raw, 2, len(raw)))


def test_core_report_target_out_of_range_rejected():
    report = CoreReport(
        group=IPv4Address("239.0.0.1"),
        cores=(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")),
    )
    raw = bytearray(report.encode())
    raw[9] = 2  # target_core index == count
    with pytest.raises(IGMPDecodeError, match="invalid core report"):
        decode_igmp(_refix(raw, 2, len(raw)))


def test_core_report_declared_count_beyond_payload_rejected():
    report = CoreReport(
        group=IPv4Address("239.0.0.1"), cores=(IPv4Address("10.0.0.1"),)
    )
    raw = bytearray(report.encode())
    raw[10:12] = struct.pack("!H", 5)  # claims 5 cores, carries 1
    with pytest.raises(IGMPDecodeError, match="truncated"):
        decode_igmp(_refix(raw, 2, len(raw)))


# -- random garbage ---------------------------------------------------------


@pytest.mark.parametrize(
    "decoder,error",
    [
        (decode_control, CBTDecodeError),
        (decode_data_header, CBTDecodeError),
        (decode_igmp, IGMPDecodeError),
    ],
    ids=["control", "data", "igmp"],
)
def test_random_garbage_raises_typed_error(decoder, error):
    rng = random.Random(SEED)
    for _ in range(100):
        blob = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 128)))
        with pytest.raises(error):
            decoder(blob)


def test_decode_errors_are_valueerror_subclasses():
    # Callers that predate the typed errors catch ValueError; the typed
    # hierarchy must stay inside it.
    assert issubclass(CBTDecodeError, ValueError)
    assert issubclass(IGMPDecodeError, ValueError)
