"""Tests for IGMP message codecs, including property-based roundtrips."""

import pytest
from hypothesis import given, strategies as st

from repro.igmp.messages import (
    CoreReport,
    IGMPDecodeError,
    Leave,
    MembershipQuery,
    MembershipReport,
    decode_igmp,
    internet_checksum,
)
from repro.netsim.address import IPv4Address

GROUP = IPv4Address("239.1.2.3")
CORES = (IPv4Address("10.0.0.1"), IPv4Address("10.0.1.1"))

addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)
multicast_addresses = st.integers(
    min_value=int(IPv4Address("224.0.1.0")), max_value=int(IPv4Address("239.255.255.255"))
).map(IPv4Address)


class TestChecksum:
    def test_known_zero(self):
        assert internet_checksum(b"\xff\xff") == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    @given(st.binary(min_size=0, max_size=64).filter(lambda b: len(b) % 2 == 0))
    def test_data_plus_checksum_verifies(self, data):
        # The one's-complement identity holds when the checksum lands
        # on a 16-bit word boundary, as it does in every real header.
        checksum = internet_checksum(data)
        combined = data + bytes([(checksum >> 8) & 0xFF, checksum & 0xFF])
        assert internet_checksum(combined) == 0


class TestRoundtrips:
    def test_general_query(self):
        q = MembershipQuery()
        decoded = decode_igmp(q.encode())
        assert decoded.is_general
        assert decoded.max_response_time == pytest.approx(q.max_response_time, abs=0.1)

    def test_group_specific_query(self):
        q = MembershipQuery(group=GROUP, max_response_time=1.0)
        decoded = decode_igmp(q.encode())
        assert decoded.group == GROUP

    def test_report(self):
        assert decode_igmp(MembershipReport(group=GROUP).encode()) == MembershipReport(
            group=GROUP
        )

    def test_leave(self):
        assert decode_igmp(Leave(group=GROUP).encode()) == Leave(group=GROUP)

    def test_core_report(self):
        report = CoreReport(group=GROUP, cores=CORES, target_core=1)
        decoded = decode_igmp(report.encode())
        assert decoded == report
        assert decoded.target_core_address == CORES[1]
        assert decoded.primary_core == CORES[0]

    @given(
        group=multicast_addresses,
        cores=st.lists(addresses, min_size=1, max_size=7),
        data=st.data(),
    )
    def test_core_report_roundtrip_property(self, group, cores, data):
        target = data.draw(st.integers(min_value=0, max_value=len(cores) - 1))
        report = CoreReport(group=group, cores=tuple(cores), target_core=target)
        assert decode_igmp(report.encode()) == report


class TestValidation:
    def test_truncated_rejected(self):
        with pytest.raises(IGMPDecodeError):
            decode_igmp(b"\x11\x00\x00")

    def test_corruption_rejected(self):
        data = bytearray(MembershipReport(group=GROUP).encode())
        data[5] ^= 0xFF
        with pytest.raises(IGMPDecodeError):
            decode_igmp(bytes(data))

    def test_unknown_type_rejected(self):
        packet = bytearray(MembershipReport(group=GROUP).encode())
        packet[0] = 0x99
        # Fix the checksum for the mutated type so only the type check fires.
        packet[2:4] = b"\x00\x00"
        checksum = internet_checksum(bytes(packet))
        packet[2] = (checksum >> 8) & 0xFF
        packet[3] = checksum & 0xFF
        with pytest.raises(IGMPDecodeError):
            decode_igmp(bytes(packet))

    def test_core_report_needs_cores(self):
        with pytest.raises(ValueError):
            CoreReport(group=GROUP, cores=())

    def test_core_report_target_in_range(self):
        with pytest.raises(ValueError):
            CoreReport(group=GROUP, cores=CORES, target_core=5)

    def test_core_report_truncated_core_list(self):
        encoded = CoreReport(group=GROUP, cores=CORES).encode()
        with pytest.raises(IGMPDecodeError):
            decode_igmp(encoded[:-4])

    @given(st.binary(min_size=8, max_size=64))
    def test_random_bytes_never_crash(self, data):
        try:
            decode_igmp(data)
        except IGMPDecodeError:
            pass  # rejection is the expected path


class TestSizes:
    def test_simple_messages_are_8_bytes(self):
        assert len(MembershipQuery().encode()) == 8
        assert len(MembershipReport(group=GROUP).encode()) == 8
        assert len(Leave(group=GROUP).encode()) == 8

    def test_core_report_size_matches_declaration(self):
        report = CoreReport(group=GROUP, cores=CORES)
        assert len(report.encode()) == report.size_bytes()
