"""Tests for CBT packet codecs (spec §8), including property roundtrips."""

import pytest
from hypothesis import given, strategies as st

from repro.core.constants import JoinSubcode, MAX_CORES, MessageType, OFF_TREE, ON_TREE
from repro.core.messages import (
    CBTControlMessage,
    CBTDataPacket,
    CBTDecodeError,
    CONTROL_HEADER_SIZE,
    DATA_HEADER_SIZE,
    decode_control,
    decode_data_header,
)
from repro.netsim.address import IPv4Address

GROUP = IPv4Address("239.1.2.3")
ORIGIN = IPv4Address("10.0.0.1")
CORE = IPv4Address("10.0.1.1")
CORES = (CORE, IPv4Address("10.0.2.1"))

addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)


def make_join(**overrides):
    fields = dict(
        msg_type=MessageType.JOIN_REQUEST,
        code=int(JoinSubcode.ACTIVE_JOIN),
        group=GROUP,
        origin=ORIGIN,
        target_core=CORE,
        cores=CORES,
    )
    fields.update(overrides)
    return CBTControlMessage(**fields)


class TestControlCodec:
    def test_join_roundtrip(self):
        message = make_join()
        assert decode_control(message.encode()) == message

    def test_header_is_fixed_size(self):
        # Spec: fixed maximum core count avoids variable-size packets.
        assert len(make_join(cores=(CORE,)).encode()) == CONTROL_HEADER_SIZE
        assert len(make_join(cores=CORES).encode()) == CONTROL_HEADER_SIZE

    def test_all_primary_types_roundtrip(self):
        for msg_type in (
            MessageType.JOIN_REQUEST,
            MessageType.JOIN_ACK,
            MessageType.JOIN_NACK,
            MessageType.QUIT_REQUEST,
            MessageType.QUIT_ACK,
            MessageType.FLUSH_TREE,
        ):
            message = make_join(msg_type=msg_type)
            assert decode_control(message.encode()).msg_type == msg_type

    def test_echo_aggregate_roundtrip(self):
        echo = CBTControlMessage(
            msg_type=MessageType.ECHO_REQUEST,
            code=0,
            group=GROUP,
            origin=ORIGIN,
            aggregate=True,
            group_mask=IPv4Address("255.255.255.0"),
        )
        decoded = decode_control(echo.encode())
        assert decoded.msg_type == MessageType.ECHO_REQUEST
        assert decoded.aggregate
        assert decoded.group_mask == IPv4Address("255.255.255.0")

    def test_echo_non_aggregate(self):
        echo = CBTControlMessage(
            msg_type=MessageType.ECHO_REPLY, code=0, group=GROUP, origin=ORIGIN
        )
        decoded = decode_control(echo.encode())
        assert not decoded.aggregate
        assert decoded.group_mask is None

    def test_too_many_cores_rejected(self):
        with pytest.raises(ValueError):
            make_join(cores=tuple([CORE] * (MAX_CORES + 1)))

    def test_corruption_rejected(self):
        data = bytearray(make_join().encode())
        data[10] ^= 0x55
        with pytest.raises(CBTDecodeError):
            decode_control(bytes(data))

    def test_truncation_rejected(self):
        with pytest.raises(CBTDecodeError):
            decode_control(make_join().encode()[:20])

    def test_unknown_type_rejected(self):
        data = bytearray(make_join().encode())
        data[1] = 99
        # recompute checksum over mutated header
        data[6:8] = b"\x00\x00"
        from repro.igmp.messages import internet_checksum

        checksum = internet_checksum(bytes(data))
        data[6] = (checksum >> 8) & 0xFF
        data[7] = checksum & 0xFF
        with pytest.raises(CBTDecodeError):
            decode_control(bytes(data))

    def test_primary_core_property(self):
        assert make_join().primary_core == CORES[0]
        assert make_join(cores=()).primary_core is None

    @given(
        msg_type=st.sampled_from(
            [
                MessageType.JOIN_REQUEST,
                MessageType.JOIN_ACK,
                MessageType.JOIN_NACK,
                MessageType.QUIT_REQUEST,
                MessageType.QUIT_ACK,
                MessageType.FLUSH_TREE,
            ]
        ),
        code=st.integers(min_value=0, max_value=255),
        group=addresses,
        origin=addresses,
        target=addresses,
        cores=st.lists(addresses, min_size=0, max_size=MAX_CORES),
    )
    def test_roundtrip_property(self, msg_type, code, group, origin, target, cores):
        message = CBTControlMessage(
            msg_type=msg_type,
            code=code,
            group=group,
            origin=origin,
            target_core=target,
            cores=tuple(cores),
        )
        assert decode_control(message.encode()) == message

    @given(st.binary(min_size=CONTROL_HEADER_SIZE, max_size=CONTROL_HEADER_SIZE + 8))
    def test_random_bytes_never_crash(self, data):
        try:
            decode_control(data)
        except CBTDecodeError:
            pass


class TestDataCodec:
    def make_packet(self, **overrides):
        fields = dict(
            group=GROUP,
            core=CORE,
            origin=ORIGIN,
            inner=b"payload",
            on_tree=OFF_TREE,
            ip_ttl=17,
            flow_id=7,
        )
        fields.update(overrides)
        return CBTDataPacket(**fields)

    def test_header_roundtrip(self):
        packet = self.make_packet()
        decoded = decode_data_header(packet.encode())
        assert decoded.group == packet.group
        assert decoded.core == packet.core
        assert decoded.origin == packet.origin
        assert decoded.ip_ttl == packet.ip_ttl
        assert decoded.flow_id == packet.flow_id
        assert decoded.inner == b"payload"

    def test_header_size(self):
        assert len(self.make_packet().encode_header()) == DATA_HEADER_SIZE

    def test_on_tree_marking(self):
        packet = self.make_packet()
        assert packet.on_tree == OFF_TREE
        marked = packet.marked_on_tree()
        assert marked.on_tree == ON_TREE
        assert decode_data_header(marked.encode()).on_tree == ON_TREE

    def test_invalid_on_tree_value_rejected(self):
        with pytest.raises(ValueError):
            self.make_packet(on_tree=0x42)

    def test_ttl_decrement(self):
        packet = self.make_packet(ip_ttl=2)
        assert packet.decremented().ip_ttl == 1
        with pytest.raises(ValueError):
            self.make_packet(ip_ttl=0).decremented()

    def test_corruption_rejected(self):
        data = bytearray(self.make_packet().encode())
        data[9] ^= 0x01
        with pytest.raises(CBTDecodeError):
            decode_data_header(bytes(data))

    def test_encode_requires_bytes_inner(self):
        packet = self.make_packet(inner=object())
        with pytest.raises(TypeError):
            packet.encode()
        # header-only serialisation still works
        assert len(packet.encode_header()) == DATA_HEADER_SIZE

    def test_size_accounting(self):
        packet = self.make_packet(inner=b"x" * 100)
        assert packet.wire_size == DATA_HEADER_SIZE + 100

    @given(
        group=addresses,
        core=addresses,
        origin=addresses,
        ttl=st.integers(min_value=0, max_value=255),
        flow=st.integers(min_value=0, max_value=2**32 - 1),
        payload=st.binary(max_size=32),
        on_tree=st.sampled_from([ON_TREE, OFF_TREE]),
    )
    def test_roundtrip_property(self, group, core, origin, ttl, flow, payload, on_tree):
        packet = CBTDataPacket(
            group=group,
            core=core,
            origin=origin,
            inner=payload,
            on_tree=on_tree,
            ip_ttl=ttl,
            flow_id=flow,
        )
        decoded = decode_data_header(packet.encode())
        assert (decoded.group, decoded.core, decoded.origin) == (group, core, origin)
        assert decoded.ip_ttl == ttl
        assert decoded.flow_id == flow
        assert decoded.on_tree == on_tree
        assert decoded.inner == payload

    @given(
        group=addresses,
        core=addresses,
        origin=addresses,
        ttl=st.integers(min_value=0, max_value=255),
        flow=st.integers(min_value=0, max_value=2**32 - 1),
        on_tree=st.sampled_from([ON_TREE, OFF_TREE]),
        version=st.integers(min_value=0, max_value=15),
    )
    def test_copies_equal_dataclasses_replace(
        self, group, core, origin, ttl, flow, on_tree, version
    ):
        """The per-hop copies against a packet built field by field
        (``dataclasses.replace`` was the reference while packets were
        dataclasses; ``_replace`` is what is left of it and must
        agree)."""
        inner = object()  # carried by identity, whatever it is
        packet = CBTDataPacket(
            group=group, core=core, origin=origin, inner=inner,
            on_tree=on_tree, ip_ttl=ttl, flow_id=flow, version=version,
        )
        marked = packet.marked_on_tree()
        assert marked == CBTDataPacket(
            group, core, origin, inner, ON_TREE, ttl, flow, version
        )
        assert marked == packet._replace(on_tree=ON_TREE)
        assert marked.inner is inner and marked.on_tree == ON_TREE
        if ttl == 0:
            with pytest.raises(ValueError):
                packet.decremented()
        else:
            hop = packet.decremented()
            assert hop == CBTDataPacket(
                group, core, origin, inner, on_tree, ttl - 1, flow, version
            )
            assert hop == packet._replace(ip_ttl=ttl - 1)
            assert hop.inner is inner and hop.on_tree == on_tree
