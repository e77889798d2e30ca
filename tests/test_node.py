"""Tests for node basics: interfaces, dispatch, identity."""

import pytest

from repro.netsim.address import IPv4Address
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_IGMP, PROTO_UDP
from repro.topology.builder import Network


def test_interface_vifs_are_sequential():
    net = Network()
    r = net.add_router("r")
    s1 = net.add_subnet("s1", [r])
    s2 = net.add_subnet("s2", [r])
    assert [i.vif for i in r.interfaces] == [0, 1]
    assert r.interface_for_vif(1).network == s2.network


def test_primary_address_is_lowest():
    net = Network()
    r = net.add_router("r")
    net.add_subnet("s1", [r])
    net.add_subnet("s2", [r])
    assert r.primary_address == min(i.address for i in r.interfaces)


def test_primary_address_requires_interface():
    net = Network()
    r = net.add_router("r")
    with pytest.raises(RuntimeError):
        _ = r.primary_address


def test_interface_toward_finds_directly_connected():
    net = Network()
    r = net.add_router("r")
    s1 = net.add_subnet("s1", [r])
    iface = r.interface_toward(IPv4Address(int(s1.network.network_address) + 77))
    assert iface is r.interfaces[0]
    assert r.interface_toward(IPv4Address("192.0.2.1")) is None


def test_interface_on():
    net = Network()
    r = net.add_router("r")
    s1 = net.add_subnet("s1", [r])
    assert r.interface_on(s1.network) is r.interfaces[0]


def test_owns_address():
    net = Network()
    r = net.add_router("r")
    net.add_subnet("s1", [r])
    assert r.owns_address(r.interfaces[0].address)
    assert not r.owns_address(IPv4Address("192.0.2.1"))


def test_protocol_dispatch_by_number():
    net = Network()
    node = Node("n", net.scheduler)
    subnet = net.add_subnet("s")
    net.attach(node, subnet)
    udp_seen, igmp_seen, default_seen = [], [], []
    node.register_handler(PROTO_UDP, lambda n, i, d: udp_seen.append(d))
    node.register_handler(PROTO_IGMP, lambda n, i, d: igmp_seen.append(d))
    node.register_default_handler(lambda n, i, d: default_seen.append(d))
    iface = node.interfaces[0]
    for proto, bucket in ((PROTO_UDP, udp_seen), (PROTO_IGMP, igmp_seen), (99, default_seen)):
        node.receive(
            iface,
            IPDatagram(src=iface.address, dst=iface.address, proto=proto, payload=b""),
        )
    assert len(udp_seen) == len(igmp_seen) == len(default_seen) == 1


def test_handler_object_with_handle_method():
    net = Network()
    node = Node("n", net.scheduler)
    subnet = net.add_subnet("s")
    net.attach(node, subnet)

    class Recorder:
        def __init__(self):
            self.seen = []

        def handle(self, n, i, d):
            self.seen.append(d)

    recorder = Recorder()
    node.register_handler(PROTO_UDP, recorder)
    iface = node.interfaces[0]
    node.receive(
        iface,
        IPDatagram(src=iface.address, dst=iface.address, proto=PROTO_UDP, payload=b""),
    )
    assert len(recorder.seen) == 1


def test_rx_count_increments():
    net = Network()
    node = Node("n", net.scheduler)
    subnet = net.add_subnet("s")
    net.attach(node, subnet)
    iface = node.interfaces[0]
    for _ in range(3):
        node.receive(
            iface,
            IPDatagram(src=iface.address, dst=iface.address, proto=1, payload=b""),
        )
    assert node.rx_count == 3


def test_interface_mode_validation():
    net = Network()
    r = net.add_router("r")
    s = net.add_subnet("s")
    with pytest.raises(ValueError):
        r.add_interface(IPv4Address(int(s.network.network_address) + 1), s.network, s, mode="weird")


def test_interface_address_must_match_network():
    net = Network()
    r = net.add_router("r")
    s = net.add_subnet("s")
    with pytest.raises(ValueError):
        r.add_interface(IPv4Address("192.0.2.1"), s.network, s)
