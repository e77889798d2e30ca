"""Additional netsim coverage: jitter, bandwidth interplay, edge cases."""

import pytest

from repro.netsim.address import IPv4Address
from repro.netsim.engine import PeriodicTimer, Scheduler
from repro.netsim.packet import IPDatagram, PROTO_UDP
from repro.topology.builder import Network


GROUP = IPv4Address("239.0.0.9")


class TestPeriodicJitter:
    def test_zero_jitter_default(self):
        sched = Scheduler()
        ticks = []
        PeriodicTimer(sched, 5.0, lambda: ticks.append(sched.now)).start()
        sched.run(until=16.0)
        assert ticks == [5.0, 10.0, 15.0]


class TestBandwidthMulticast:
    def test_multicast_on_capacity_link_single_serialisation(self):
        """One multicast transmission occupies the link once, not once
        per receiver."""
        net = Network()
        routers = [net.add_router(f"r{i}") for i in range(3)]
        lan = net.add_subnet("lan", routers, bandwidth_bps=8000.0, delay=0.0)
        net.converge()
        received = []
        for router in routers[1:]:
            router.register_handler(
                99, (lambda bucket: lambda n, i, d: bucket.append(n.name))(received)
            )
        src = routers[0].interfaces[0]
        src.send(
            IPDatagram(src=src.address, dst=GROUP, proto=99, payload=b"x" * 100)
        )
        done = net.run()
        assert len(received) == 2
        one_packet = (20 + 100) * 8 / 8000.0
        assert done == pytest.approx(one_packet)

    def test_queueing_delays_later_multicasts(self):
        net = Network()
        routers = [net.add_router(f"r{i}") for i in range(2)]
        lan = net.add_subnet("lan", routers, bandwidth_bps=8000.0, delay=0.0)
        net.converge()
        arrivals = []
        routers[1].register_handler(
            99, lambda n, i, d: arrivals.append(net.scheduler.now)
        )
        src = routers[0].interfaces[0]
        for _ in range(2):
            src.send(
                IPDatagram(src=src.address, dst=GROUP, proto=99, payload=b"x" * 100)
            )
        net.run()
        one = (20 + 100) * 8 / 8000.0
        assert arrivals[0] == pytest.approx(one)
        assert arrivals[1] == pytest.approx(2 * one)


class TestNodeEdgeCases:
    def test_send_on_detached_interface_raises(self):
        from repro.netsim.nic import Interface
        from repro.netsim.node import Node
        from repro.netsim.address import IPv4Network

        net = Network()
        node = Node("n", net.scheduler)
        iface = Interface(
            node, 0, IPv4Address("10.0.0.1"), IPv4Network("10.0.0.0/24")
        )
        with pytest.raises(RuntimeError):
            iface.send(
                IPDatagram(
                    src=iface.address, dst=GROUP, proto=PROTO_UDP, payload=b""
                )
            )

    def test_down_interface_send_is_noop(self):
        net = Network()
        r1, r2 = net.add_router("r1"), net.add_router("r2")
        net.add_p2p("p", r1, r2)
        net.converge()
        r1.interfaces[0].up = False
        r1.interfaces[0].send(
            IPDatagram(
                src=r1.interfaces[0].address,
                dst=GROUP,
                proto=PROTO_UDP,
                payload=b"",
            )
        )
        net.run()
        assert r2.rx_count == 0

    def test_same_network_check(self):
        net = Network()
        r = net.add_router("r")
        lan = net.add_subnet("lan", [r])
        iface = r.interfaces[0]
        inside = IPv4Address(int(lan.network.network_address) + 7)
        assert iface.on_same_network(inside)
        assert not iface.on_same_network(IPv4Address("192.0.2.1"))


class TestSchedulerEdges:
    def test_run_with_no_events_advances_to_until(self):
        sched = Scheduler()
        assert sched.run(until=42.0) == 42.0
        assert sched.now == 42.0

    def test_zero_delay_event_runs(self):
        sched = Scheduler()
        fired = []
        sched.call_later(0.0, lambda: fired.append(1))
        sched.run_until_idle()
        assert fired == [1]

    def test_pending_events_counts_uncancelled(self):
        sched = Scheduler()
        t1 = sched.call_later(1.0, lambda: None)
        sched.call_later(2.0, lambda: None)
        t1.cancel()
        assert sched.pending_events == 1
