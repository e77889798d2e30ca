"""Tests for the Network builder."""

import pytest

from repro.netsim.engine import SchedulerError
from repro.netsim.packet import IPDatagram, PROTO_UDP
from repro.topology.builder import Network


class TestConstruction:
    def test_duplicate_router_name_rejected(self):
        net = Network()
        net.add_router("r")
        with pytest.raises(ValueError):
            net.add_router("r")

    def test_duplicate_host_name_rejected(self):
        net = Network()
        r = net.add_router("r")
        s = net.add_subnet("s", [r])
        net.add_host("h", s)
        with pytest.raises(ValueError):
            net.add_host("h", s)

    def test_router_host_namespace_shared(self):
        net = Network()
        r = net.add_router("x")
        s = net.add_subnet("s", [r])
        with pytest.raises(ValueError):
            net.add_host("x", s)

    def test_duplicate_link_name_rejected(self):
        net = Network()
        net.add_subnet("s")
        with pytest.raises(ValueError):
            net.add_subnet("s")

    def test_host_gets_lowest_router_gateway(self):
        net = Network()
        r1, r2 = net.add_router("r1"), net.add_router("r2")
        s = net.add_subnet("s", [r1, r2])
        h = net.add_host("h", s)
        assert h.default_gateway == min(
            i.address for i in s.interfaces if i.node.name in ("r1", "r2")
        )

    def test_host_without_router_has_no_gateway(self):
        net = Network()
        s = net.add_subnet("s")
        h = net.add_host("h", s)
        assert h.default_gateway is None


class TestFailureHelpers:
    def build_line(self):
        net = Network()
        a, b, c = (net.add_router(x) for x in "abc")
        net.add_p2p("ab", a, b)
        net.add_p2p("bc", b, c)
        lan = net.add_subnet("lan", [c])
        net.converge()
        return net, a, b, c, lan

    def test_fail_restore_link_reconverges(self):
        net, a, b, c, lan = self.build_line()
        target = lan.network.network_address + 1
        assert a.best_route(target) is not None
        net.fail_link("ab")
        assert a.best_route(target) is None
        net.restore_link("ab")
        assert a.best_route(target) is not None

    def test_fail_router_downs_all_interfaces(self):
        net, a, b, c, lan = self.build_line()
        net.fail_router("b")
        assert all(not i.up for i in b.interfaces)
        assert a.best_route(lan.network.network_address + 1) is None
        net.restore_router("b")
        assert all(i.up for i in b.interfaces)
        assert a.best_route(lan.network.network_address + 1) is not None

    def test_fail_without_reconverge_keeps_stale_routes(self):
        net, a, b, c, lan = self.build_line()
        net.fail_link("ab", reconverge=False)
        # Routes are stale until someone reconverges explicitly.
        assert a.best_route(lan.network.network_address + 1) is not None
        net.converge()
        assert a.best_route(lan.network.network_address + 1) is None


class TestQueries:
    def test_address_of_and_node_by_address(self):
        net = Network()
        r = net.add_router("r")
        s = net.add_subnet("s", [r])
        h = net.add_host("h", s)
        assert net.node_by_address(net.address_of("r")) is r
        assert net.node_by_address(net.address_of("h")) is h
        with pytest.raises(KeyError):
            net.address_of("missing")

    def test_routers_on_excludes_hosts(self):
        net = Network()
        r = net.add_router("r")
        s = net.add_subnet("s", [r])
        net.add_host("h", s)
        assert net.routers_on(s) == [r]

    def test_all_subnets_excludes_p2p(self):
        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        net.add_subnet("lan", [a])
        net.add_p2p("wire", a, b)
        assert [l.name for l in net.all_subnets()] == ["lan"]


class TestClose:
    """A network has an end; a closed one refuses work, typed and
    loudly (the scheduler's side is in ``test_engine.py``, the
    nothing-left-for-the-collector side in ``test_alloc_budget.py``)."""

    def build(self):
        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        lan = net.add_subnet("lan", [a])
        net.add_p2p("wire", a, b)
        net.add_host("h", lan)
        net.converge()
        return net

    def test_running_and_scheduling_after_close_raise(self):
        net = self.build()
        net.run(until=1.0)
        net.close()
        with pytest.raises(SchedulerError, match="closed"):
            net.run(until=2.0)
        with pytest.raises(SchedulerError, match="closed"):
            net.scheduler.call_later(1.0, print)

    def test_sending_after_close_raises(self):
        net = self.build()
        host = net.host("h")
        interface = host.interface
        datagram = IPDatagram(
            interface.address, net.address_of("b"), PROTO_UDP, b"x", 8
        )
        interface.send(datagram)
        net.run(until=1.0)
        net.close()
        with pytest.raises(SchedulerError, match="network is closed"):
            interface.send(datagram)
        with pytest.raises(SchedulerError, match="network is closed"):
            host.originate(datagram)
        assert "closed" in repr(interface)

    def test_an_unattached_interface_is_not_mistaken_for_a_closed_one(self):
        from repro.netsim.nic import Interface

        net = self.build()
        router = net.router("a")
        prefix = net.allocator.next_subnet()
        loose = Interface(router, 9, next(prefix.hosts()), prefix)
        with pytest.raises(RuntimeError, match="not attached"):
            loose.send(IPDatagram(loose.address, loose.address, PROTO_UDP, b"", 1))

    def test_second_close_is_a_noop_and_wire_statistics_stay(self):
        net = self.build()
        host = net.host("h")
        host.interface.send(
            IPDatagram(host.interface.address, net.address_of("a"), PROTO_UDP, b"x", 8)
        )
        net.run(until=1.0)
        lan = net.link("lan")
        before = (lan.tx_count, lan.rx_count, lan.tx_bytes)
        assert before[0] == 1
        net.close()
        net.close()
        assert (lan.tx_count, lan.rx_count, lan.tx_bytes) == before
        assert net.telemetry.registry.value("netsim.link.lan.tx_packets") == 1

    def test_close_from_inside_a_callback_raises_and_leaves_the_network_open(self):
        net = self.build()
        net.scheduler.call_later(1.0, net.close)
        with pytest.raises(SchedulerError, match="running callback"):
            net.run(until=2.0)
        assert not net.scheduler.closed
        net.run(until=2.0)

    def test_a_closed_component_fails_loudly(self):
        """``close()`` empties what registered with the scheduler: a
        sender or a protocol engine kept past its network raises on any
        use instead of quietly doing nothing."""
        from repro.app import MulticastSender
        from repro.core.bootstrap import CBTDomain
        from repro.netsim.address import group_address

        net = self.build()
        domain = CBTDomain(net)
        domain.start()
        sender = MulticastSender(net.host("h"), group_address(0))
        assert sender.send()
        net.run(until=1.0)
        protocol = domain.protocol("a")
        net.close()
        with pytest.raises(AttributeError):
            sender.send()
        with pytest.raises(AttributeError):
            protocol.fib
        with pytest.raises(AttributeError):
            protocol.start()

    def test_routing_kept_past_its_network_keeps_the_topology(self):
        """``build().routing``: the network is dropped at that
        expression and ends its simulation, but the topology belongs to
        the routing substrate and lives as long as it does
        (``benchmarks/e2e/kernels.spf_recompute`` times exactly this)."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            routing = self.build().routing
            a, b = routing.routers
            parts = [weakref.ref(obj) for obj in (a, b, *routing.links)]
            wire = next(i for i in a.interfaces if i.link.name == "wire")
            assert wire.node is a and len(wire.link.interfaces) == 2
            routing.recompute()
            assert len(b.table) == 1  # the LAN behind a; the wire is connected
            with pytest.raises(SchedulerError, match="closed"):
                a.scheduler.call_later(1.0, print)
            del a, b, wire, routing
            assert [ref() for ref in parts] == [None] * len(parts)
        finally:
            gc.enable()

    def test_half_built_network_is_dropped_quietly(self, monkeypatch):
        """``__del__`` reaches ``close()`` on whatever the constructor
        left behind; it must not raise (an exception there is reported
        through ``sys.unraisablehook``)."""
        import sys

        from repro.topology import builder

        def explode(*args, **kwargs):
            raise RuntimeError("constructor failed half way")

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        monkeypatch.setattr(builder, "LinkStateRouting", explode)
        with pytest.raises(RuntimeError, match="half way"):
            Network()
        assert unraisable == []
