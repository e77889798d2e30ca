"""Tests for subnets, point-to-point links, and delivery semantics."""

import pytest

from repro.netsim.address import IPv4Address
from repro.netsim.engine import Scheduler
from repro.netsim.link import PointToPointLink, Subnet
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_UDP
from repro.netsim.trace import PacketTrace
from repro.topology.builder import Network

GROUP = IPv4Address("239.0.0.1")


def build_lan(node_count=3, p2p=False):
    """A LAN (or, with ``p2p``, a point-to-point link) with
    ``node_count`` plain nodes recording receptions."""
    net = Network()
    sched = net.scheduler
    if p2p:
        subnet = PointToPointLink("P2P", net.allocator.next_subnet(), sched, trace=net.trace)
    else:
        subnet = net.add_subnet("LAN")
    nodes = []
    for i in range(node_count):
        node = Node(f"n{i}", sched)
        received = []
        node.register_default_handler(
            lambda n, iface, d, bucket=received: bucket.append(d)
        )
        node.received = received
        net.attach(node, subnet)
        nodes.append(node)
    return net, subnet, nodes


class TestSubnetDelivery:
    def test_multicast_reaches_all_but_sender(self):
        net, subnet, nodes = build_lan(3)
        d = IPDatagram(
            src=nodes[0].interfaces[0].address, dst=GROUP, proto=PROTO_UDP, payload=b""
        )
        nodes[0].interfaces[0].send(d)
        net.run()
        assert len(nodes[0].received) == 0
        assert len(nodes[1].received) == 1
        assert len(nodes[2].received) == 1

    def test_unicast_reaches_only_target(self):
        net, subnet, nodes = build_lan(3)
        target = nodes[2].interfaces[0].address
        d = IPDatagram(
            src=nodes[0].interfaces[0].address, dst=target, proto=PROTO_UDP, payload=b""
        )
        nodes[0].interfaces[0].send(d, link_dst=target)
        net.run()
        assert len(nodes[1].received) == 0
        assert len(nodes[2].received) == 1

    def test_unicast_to_absent_address_dropped(self):
        net, subnet, nodes = build_lan(2)
        d = IPDatagram(
            src=nodes[0].interfaces[0].address,
            dst=IPv4Address("10.9.9.9"),
            proto=PROTO_UDP,
            payload=b"",
        )
        nodes[0].interfaces[0].send(d, link_dst=IPv4Address("10.9.9.9"))
        net.run()
        assert not nodes[1].received
        assert any(r.note.startswith("no host") for r in net.trace.filter(kind="drop"))

    def test_delivery_is_delayed(self):
        net, subnet, nodes = build_lan(2)
        d = IPDatagram(
            src=nodes[0].interfaces[0].address, dst=GROUP, proto=PROTO_UDP, payload=b""
        )
        nodes[0].interfaces[0].send(d)
        assert not nodes[1].received  # nothing until the loop runs
        net.run()
        assert nodes[1].received

    def test_down_link_drops(self):
        net, subnet, nodes = build_lan(2)
        subnet.set_up(False)
        d = IPDatagram(
            src=nodes[0].interfaces[0].address, dst=GROUP, proto=PROTO_UDP, payload=b""
        )
        nodes[0].interfaces[0].send(d)
        net.run()
        assert not nodes[1].received

    def test_down_at_delivery_counts_a_late_drop(self):
        # The link fails while the datagram is in flight: a "late" drop
        # on the link and on the payload label — twice, so the second
        # one goes through the cached per-reason counter.
        net, subnet, nodes = build_lan(2)
        registry = net.telemetry.registry
        sender = nodes[0].interfaces[0]
        for expected in (1, 2):
            subnet.set_up(True)
            sender.send(
                IPDatagram(src=sender.address, dst=GROUP, proto=PROTO_UDP, payload=b"")
            )
            subnet.set_up(False)
            net.run()
            assert registry.value("netsim.link.LAN.drop.late") == expected
            assert registry.value(f"netsim.msg.proto{PROTO_UDP}.drop.late") == expected
        assert not nodes[1].received
        assert registry.value(f"netsim.msg.proto{PROTO_UDP}.tx") == 2
        assert registry.value(f"netsim.msg.proto{PROTO_UDP}.rx") == 0
        assert [r.note for r in net.trace.filter(kind="drop")] == ["down at delivery"] * 2

    def test_down_interface_does_not_receive(self):
        net, subnet, nodes = build_lan(3)
        nodes[2].interfaces[0].up = False
        d = IPDatagram(
            src=nodes[0].interfaces[0].address, dst=GROUP, proto=PROTO_UDP, payload=b""
        )
        nodes[0].interfaces[0].send(d)
        net.run()
        assert len(nodes[1].received) == 1
        assert len(nodes[2].received) == 0

    def test_loss_model_drops(self):
        sched = Scheduler()
        from repro.netsim.address import AddressAllocator

        alloc = AddressAllocator()
        prefix = alloc.next_subnet()
        subnet = Subnet(
            name="lossy",
            network=prefix,
            scheduler=sched,
            trace=PacketTrace(),
            loss=lambda d: True,
        )
        node_a, node_b = Node("a", sched), Node("b", sched)
        received = []
        node_b.register_default_handler(lambda n, i, d: received.append(d))
        node_a.add_interface(alloc.next_host(prefix), prefix, subnet)
        node_b.add_interface(alloc.next_host(prefix), prefix, subnet)
        node_a.interfaces[0].send(
            IPDatagram(
                src=node_a.interfaces[0].address,
                dst=GROUP,
                proto=PROTO_UDP,
                payload=b"",
            )
        )
        sched.run_until_idle()
        assert not received

    def test_tx_counters(self):
        net, subnet, nodes = build_lan(2)
        d = IPDatagram(
            src=nodes[0].interfaces[0].address, dst=GROUP, proto=PROTO_UDP, payload=b""
        )
        nodes[0].interfaces[0].send(d)
        net.run()
        assert subnet.tx_count == 1
        assert subnet.tx_bytes > 0

    def test_undeliverable_unicast_not_counted_as_sent(self):
        """Regression: a unicast to an absent address used to bump
        tx_count/tx_bytes although nothing was put on the wire,
        inflating every overhead metric built on link counters."""
        net, subnet, nodes = build_lan(2)
        before = (subnet.tx_count, subnet.tx_bytes)
        d = IPDatagram(
            src=nodes[0].interfaces[0].address,
            dst=IPv4Address("10.9.9.9"),
            proto=PROTO_UDP,
            payload=b"phantom",
        )
        nodes[0].interfaces[0].send(d, link_dst=IPv4Address("10.9.9.9"))
        net.run()
        assert (subnet.tx_count, subnet.tx_bytes) == before
        assert any(r.note.startswith("no host") for r in net.trace.filter(kind="drop"))

    def test_undeliverable_unicast_does_not_occupy_the_link(self):
        """Regression: the phantom datagram also used to serialise on a
        bandwidth-limited link, delaying real traffic behind it."""
        net = Network()
        subnet = net.add_subnet("LAN", bandwidth_bps=8_000.0)
        nodes = []
        for i in range(2):
            node = Node(f"n{i}", net.scheduler)
            received = []
            node.register_default_handler(
                lambda n, iface, d, bucket=received: bucket.append(d)
            )
            node.received = received
            net.attach(node, subnet)
            nodes.append(node)
        phantom = IPDatagram(
            src=nodes[0].interfaces[0].address,
            dst=IPv4Address("10.9.9.9"),
            proto=PROTO_UDP,
            payload=b"x" * 500,
        )
        nodes[0].interfaces[0].send(phantom, link_dst=IPv4Address("10.9.9.9"))
        real = IPDatagram(
            src=nodes[0].interfaces[0].address,
            dst=nodes[1].interfaces[0].address,
            proto=PROTO_UDP,
            payload=b"y",
        )
        nodes[0].interfaces[0].send(
            real, link_dst=nodes[1].interfaces[0].address
        )
        net.run()
        assert len(nodes[1].received) == 1
        # Only the real datagram serialised: no queueing occurred.
        assert subnet.tx_count == 1
        assert subnet.queued_time == 0.0

    def test_jitter_adds_bounded_deterministic_delay(self):
        from repro.netsim.faults import SeededJitter

        arrivals = []
        for attempt in range(2):
            net, subnet, nodes = build_lan(2)
            subnet.jitter = SeededJitter(max_delay=0.5, seed=42)
            d = IPDatagram(
                src=nodes[0].interfaces[0].address,
                dst=GROUP,
                proto=PROTO_UDP,
                payload=b"",
            )
            nodes[0].interfaces[0].send(d)
            net.run()
            assert len(nodes[1].received) == 1
            arrivals.append(net.scheduler.now)
            assert subnet.delay <= net.scheduler.now <= subnet.delay + 0.5
        assert arrivals[0] == arrivals[1]

    def test_jitter_cannot_schedule_a_delivery_in_the_past(self):
        """``transmit`` queues its deliveries without ``call_later``'s
        check, so it keeps the check where a delay can go negative."""
        from repro.netsim.engine import SchedulerError

        net, subnet, nodes = build_lan(2)
        subnet.jitter = lambda datagram: -2 * subnet.delay
        d = IPDatagram(
            src=nodes[0].interfaces[0].address, dst=GROUP, proto=PROTO_UDP, payload=b""
        )
        with pytest.raises(SchedulerError, match="in the past"):
            nodes[0].interfaces[0].send(d)
        subnet.jitter = lambda datagram: -subnet.delay  # delivered at once
        nodes[0].interfaces[0].send(d)
        net.run()
        assert len(nodes[1].received) == 1 and net.scheduler.now == 0.0

    def test_duplicate_address_rejected(self):
        net, subnet, nodes = build_lan(1)
        clone = Node("clone", net.scheduler)
        with pytest.raises(ValueError):
            clone.add_interface(
                nodes[0].interfaces[0].address, subnet.network, subnet
            )


#: The two link shapes a unicast receiver is looked up on: a LAN of four
#: and a point-to-point link.
UNICAST_LINKS = pytest.mark.parametrize(
    "count, p2p", [(4, False), (2, True)], ids=["subnet4", "p2p"]
)


class TestUnicastReceiver:
    """A unicast transmission reaches the one attached interface that
    owns its link destination, found by scanning the link's interfaces;
    anything else is a ``no_host`` drop that puts nothing on the wire."""

    @staticmethod
    def send(node, target):
        sender = node.interfaces[0]
        datagram = IPDatagram(src=sender.address, dst=target, proto=PROTO_UDP, payload=b"")
        sender.send(datagram, link_dst=target)
        return datagram.uid

    @UNICAST_LINKS
    def test_each_attached_address_reaches_exactly_its_interface(self, count, p2p):
        net, link, nodes = build_lan(count, p2p=p2p)
        assert len(link.interfaces) == count
        for sender in nodes:
            uids = [self.send(sender, node.interfaces[0].address) for node in nodes]
            net.run()
            for node, uid in zip(nodes, uids):
                assert [d.uid for d in node.received] == [uid], node.name
                node.received.clear()
        assert link.attempt_count == link.tx_count == link.rx_count == count * count

    @UNICAST_LINKS
    def test_absent_target_and_down_receiver_are_no_host_drops(self, count, p2p):
        net, link, nodes = build_lan(count, p2p=p2p)
        registry = net.telemetry.registry
        absent = IPv4Address(int(link.network.broadcast_address) - 1)
        assert all(i.address != absent for i in link.interfaces)
        nodes[-1].interfaces[0].up = False
        self.send(nodes[0], absent)
        self.send(nodes[0], nodes[-1].interfaces[0].address)
        self.send(nodes[0], IPv4Address("10.9.9.9"))
        net.run()
        assert not any(node.received for node in nodes)
        assert (link.attempt_count, link.tx_count, link.tx_bytes) == (3, 0, 0)
        assert registry.value(f"netsim.link.{link.name}.drop.no_host") == 3
        notes = [r.note for r in net.trace.filter(kind="drop")]
        assert notes == [
            f"no host {absent}",
            f"no host {nodes[-1].interfaces[0].address}",
            "no host 10.9.9.9",
        ]


class TestTopologyObservers:
    def test_observers_run_in_registration_order_on_each_change(self):
        net, subnet, nodes = build_lan(2)
        calls = []
        for name in ("first", "second", "third"):
            subnet.add_topology_observer(lambda name=name: calls.append(name))
            subnet.set_up(False)
            subnet.set_up(True)
        one, two, three = ["first"], ["first", "second"], ["first", "second", "third"]
        assert calls == one * 2 + two * 2 + three * 2
        calls.clear()
        net.attach(Node("late", net.scheduler), subnet)
        nodes[0].interfaces[0].up = False
        assert calls == three * 2

    def test_a_closed_link_notifies_no_one(self):
        net, subnet, nodes = build_lan(2)
        calls = []
        subnet.add_topology_observer(lambda: calls.append("x"))
        subnet.close()
        subnet.set_up(False)
        assert calls == []


class TestPointToPoint:
    def test_duplicate_address_rejected(self):
        net, link, nodes = build_lan(1, p2p=True)
        clone = Node("clone", net.scheduler)
        with pytest.raises(ValueError, match="duplicate address"):
            clone.add_interface(nodes[0].interfaces[0].address, link.network, link)
        assert link.interfaces == [nodes[0].interfaces[0]]

    def test_third_attachment_rejected(self):
        net = Network()
        r1, r2, r3 = (net.add_router(n) for n in ("r1", "r2", "r3"))
        link = net.add_p2p("p2p", r1, r2)
        with pytest.raises(ValueError):
            net.attach(r3, link)

    def test_peer_of(self):
        net = Network()
        r1, r2 = net.add_router("r1"), net.add_router("r2")
        link = net.add_p2p("p2p", r1, r2)
        a, b = link.interfaces
        assert link.peer_of(a) is b
        assert link.peer_of(b) is a

    def test_default_delay_larger_than_lan(self):
        net = Network()
        r1, r2 = net.add_router("r1"), net.add_router("r2")
        lan = net.add_subnet("lan", [r1])
        p2p = net.add_p2p("wan", r1, r2)
        assert p2p.delay > lan.delay


class TestLinkValidation:
    def test_negative_delay_rejected(self):
        from repro.netsim.address import AddressAllocator

        alloc = AddressAllocator()
        with pytest.raises(ValueError):
            Subnet("x", alloc.next_subnet(), Scheduler(), delay=-1.0)

    def test_nonpositive_cost_rejected(self):
        from repro.netsim.address import AddressAllocator

        alloc = AddressAllocator()
        with pytest.raises(ValueError):
            Subnet("x", alloc.next_subnet(), Scheduler(), cost=0.0)
