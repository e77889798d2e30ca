"""Tests for addressing: the address and prefix types against the
standard library's, the well-known groups and the allocator."""

import copy
import ipaddress
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.address import (
    ALL_CBT_ROUTERS,
    ALL_ROUTERS,
    ALL_SYSTEMS,
    AddressAllocator,
    IPv4Address,
    IPv4Network,
    group_address,
    is_link_local_multicast,
)

values = st.integers(0, 2**32 - 1)
dotted = st.lists(st.integers(0, 255), min_size=4, max_size=4).map(
    lambda octets: ".".join(map(str, octets))
)
#: (base, prefixlen) with no host bits set.
prefixes = st.tuples(values, st.integers(0, 32)).map(
    lambda pair: (pair[0] >> (32 - pair[1]) << (32 - pair[1]), pair[1])
)


class TestAddressAgainstStdlib:
    """The standard library type is the reference: every reading the
    simulator makes of an address agrees with it."""

    @given(values)
    def test_readings_agree(self, value):
        ours, ref = IPv4Address(value), ipaddress.IPv4Address(value)
        assert str(ours) == str(ref)
        assert repr(ours) == repr(ref)
        assert format(ours, "") == format(ref, "") == f"{ours}"
        assert int(ours) == int(ref) == value
        assert ours.packed == ref.packed
        assert ours.is_multicast is ref.is_multicast
        assert ours.version == ref.version == 4
        assert bool(ours) is bool(ref) is True

    @given(dotted)
    def test_text_parses_alike(self, text):
        assert int(IPv4Address(text)) == int(ipaddress.IPv4Address(text))
        assert str(IPv4Address(text)) == str(ipaddress.IPv4Address(text))

    @given(values)
    def test_other_constructors(self, value):
        ref = ipaddress.IPv4Address(value)
        assert IPv4Address(ref.packed) == value
        assert IPv4Address(ref) == value
        assert IPv4Address(IPv4Address(value)) == value
        assert ipaddress.IPv4Address(IPv4Address(value)) == ref

    @given(values, values)
    def test_ordering_equality_and_hash(self, a, b):
        ours_a, ours_b = IPv4Address(a), IPv4Address(b)
        ref_a, ref_b = ipaddress.IPv4Address(a), ipaddress.IPv4Address(b)
        assert (ours_a < ours_b) == (ref_a < ref_b)
        assert (ours_a <= ours_b) == (ref_a <= ref_b)
        assert (ours_a == ours_b) == (ref_a == ref_b)
        assert (ours_a == IPv4Address(a)) and hash(ours_a) == hash(IPv4Address(a))
        assert sorted([ours_a, ours_b]) == [IPv4Address(v) for v in sorted([a, b])]

    @given(values)
    def test_pickle_and_copy_round_trip(self, value):
        address = IPv4Address(value)
        copies = [
            pickle.loads(pickle.dumps(address, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ] + [copy.copy(address), copy.deepcopy(address)]
        for clone in copies:
            assert type(clone) is IPv4Address
            assert clone == address and str(clone) == str(address)

    def test_zero_is_truthy(self):
        assert IPv4Address("0.0.0.0") and ipaddress.IPv4Address("0.0.0.0")

    @pytest.mark.parametrize(
        "bad",
        ["1.2.3", "1.2.3.4/24", "1.2.3.256", "01.2.3.4", "", -1, 2**32, 1.5, None, [], {}]
        + [b"", b"\x01\x02\x03", b"\x01\x02\x03\x04\x05"],
    )
    def test_malformed_input_raises_value_error_on_both_sides(self, bad):
        with pytest.raises(ValueError):
            ipaddress.IPv4Address(bad)
        with pytest.raises(ipaddress.AddressValueError):
            IPv4Address(bad)

    def test_unequal_to_a_stdlib_address(self):
        # Mixing the two types is a bug the comparison cannot catch:
        # it raises nothing, so no module may hold the stdlib type.
        assert IPv4Address("10.0.0.1") != ipaddress.IPv4Address("10.0.0.1")


class TestNetworkAgainstStdlib:
    @given(prefixes, values)
    def test_readings_agree(self, prefix, probe):
        ours, ref = IPv4Network(prefix), ipaddress.IPv4Network(prefix)
        assert str(ours) == str(ref)
        assert repr(ours) == repr(ref)
        assert ours.network_address == int(ref.network_address)
        assert ours.broadcast_address == int(ref.broadcast_address)
        assert ours.netmask == int(ref.netmask)
        assert ours.prefixlen == ref.prefixlen
        assert hash(ours) == hash(ref)
        assert ours == IPv4Network(str(ref)) == IPv4Network(ref)
        for address in (probe, ours.network_address, ours.broadcast_address):
            assert (IPv4Address(address) in ours) == (
                ipaddress.IPv4Address(address) in ref
            )

    @given(prefixes, prefixes)
    def test_overlaps_and_equality_agree(self, a, b):
        ours_a, ours_b = IPv4Network(a), IPv4Network(b)
        ref_a, ref_b = ipaddress.IPv4Network(a), ipaddress.IPv4Network(b)
        assert ours_a.overlaps(ours_b) == ref_a.overlaps(ref_b)
        assert (ours_a == ours_b) == (ref_a == ref_b)

    @given(prefixes, st.integers(0, 4))
    def test_subnets_agree(self, prefix, extra):
        ours, ref = IPv4Network(prefix), ipaddress.IPv4Network(prefix)
        new_prefix = min(32, ours.prefixlen + extra)
        assert [str(n) for n in ours.subnets(new_prefix=new_prefix)] == [
            str(n) for n in ref.subnets(new_prefix=new_prefix)
        ]

    @pytest.mark.parametrize(
        "bad", ["10.0.0.1/24", "10.0.0.0/33", "10.0.0/24", "not-a-prefix", None, 1.5]
    )
    def test_malformed_prefix_raises_value_error_on_both_sides(self, bad):
        with pytest.raises(ValueError):
            ipaddress.IPv4Network(bad)
        with pytest.raises(ValueError):
            IPv4Network(bad)

    @settings(max_examples=20)
    @given(prefixes)
    def test_pickle_and_copy_round_trip(self, prefix):
        network = IPv4Network(prefix)
        for clone in (
            pickle.loads(pickle.dumps(network)),
            copy.copy(network),
            copy.deepcopy(network),
        ):
            assert clone == network and hash(clone) == hash(network)


class TestStdlibBoundary:
    """``benchmarks/e2e/kernels.py`` (frozen) hands stdlib addresses and
    networks to the routing table and the codecs; both read them
    through ``int()``, ``.network_address`` and ``.prefixlen``."""

    def test_routing_table_takes_stdlib_prefixes_and_destinations(self):
        from repro.routing.table import Route, RoutingTable

        table = RoutingTable()
        route = Route(ipaddress.IPv4Network("10.1.0.0/16"), None, None, 1.0)
        table.install(route)
        assert table.lookup(ipaddress.IPv4Address("10.1.2.3")) is route
        assert table.lookup(IPv4Address("10.1.2.3")) is route
        assert table.lookup(ipaddress.IPv4Address("10.2.0.1")) is None

    def test_codecs_encode_stdlib_addresses_alike(self):
        from repro.core.constants import MessageType
        from repro.core.messages import CBTControlMessage, CBTDataPacket, decode_control
        from repro.igmp.messages import CoreReport

        def messages(make):
            group, core, origin = make("239.1.2.3"), make("10.0.0.1"), make("10.1.0.1")
            return (
                CBTControlMessage(MessageType.JOIN_REQUEST, 0, group, origin, core, (core,)),
                CBTDataPacket(group, core, origin, b"x"),
                CoreReport(group=group, cores=(core,)),
            )

        ours, theirs = messages(IPv4Address), messages(ipaddress.IPv4Address)
        assert [m.encode() for m in ours] == [m.encode() for m in theirs]
        assert decode_control(theirs[0].encode()) == ours[0]


class TestWellKnownGroups:
    def test_all_cbt_routers_is_224_0_0_7(self):
        # Spec §2: DR solicitations target the all-CBT-routers group.
        assert ALL_CBT_ROUTERS == IPv4Address("224.0.0.7")

    def test_all_systems_and_all_routers(self):
        assert ALL_SYSTEMS == IPv4Address("224.0.0.1")
        assert ALL_ROUTERS == IPv4Address("224.0.0.2")

    def test_well_knowns_are_link_local(self):
        for address in (ALL_SYSTEMS, ALL_ROUTERS, ALL_CBT_ROUTERS):
            assert address.is_multicast
            assert is_link_local_multicast(address)


class TestGroupAddress:
    def test_deterministic(self):
        assert group_address(3) == group_address(3)

    def test_distinct_per_index(self):
        addresses = {group_address(i) for i in range(100)}
        assert len(addresses) == 100

    def test_is_routable_multicast(self):
        g = group_address(0)
        assert g.is_multicast
        assert not is_link_local_multicast(g)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            group_address(-1)


class TestAddressAllocator:
    def test_subnets_are_disjoint(self):
        alloc = AddressAllocator()
        a, b = alloc.next_subnet(), alloc.next_subnet()
        assert a != b
        assert not a.overlaps(b)

    def test_host_addresses_inside_subnet(self):
        alloc = AddressAllocator()
        net = alloc.next_subnet()
        for _ in range(5):
            assert alloc.next_host(net) in net

    def test_host_addresses_unique(self):
        alloc = AddressAllocator()
        net = alloc.next_subnet()
        hosts = [alloc.next_host(net) for _ in range(10)]
        assert len(set(hosts)) == 10

    def test_unknown_subnet_rejected(self):
        alloc = AddressAllocator()
        with pytest.raises(ValueError):
            alloc.next_host(IPv4Network("192.168.0.0/24"))

    def test_host_exhaustion_detected(self):
        alloc = AddressAllocator(prefix_len=30)  # 2 usable hosts
        net = alloc.next_subnet()
        alloc.next_host(net)
        alloc.next_host(net)
        with pytest.raises(ValueError):
            alloc.next_host(net)

    def test_invalid_prefix_len(self):
        with pytest.raises(ValueError):
            AddressAllocator(prefix_len=8)
        with pytest.raises(ValueError):
            AddressAllocator(prefix_len=31)

    def test_deterministic_sequence(self):
        a, b = AddressAllocator(), AddressAllocator()
        assert [a.next_subnet() for _ in range(5)] == [
            b.next_subnet() for _ in range(5)
        ]
