"""Tests for packet trace capture and queries."""

import pytest

from repro.netsim.address import IPv4Address
from repro.netsim.packet import IPDatagram, PROTO_UDP, make_udp
from repro.netsim.trace import PacketTrace, TraceRecord
from repro.topology.builder import Network

GROUP = IPv4Address("239.0.0.1")


def make_record(kind="tx", link="l", node="n", proto=PROTO_UDP, time=0.0):
    return TraceRecord(
        time=time,
        kind=kind,
        link_name=link,
        node_name=node,
        datagram=IPDatagram(
            src=IPv4Address("10.0.0.1"),
            dst=IPv4Address("10.0.0.2"),
            proto=proto,
            payload=b"",
        ),
    )


class TestPacketTrace:
    def test_disabled_trace_records_nothing(self):
        trace = PacketTrace(enabled=False)
        trace.record(make_record())
        assert len(trace) == 0

    def test_filter_by_kind(self):
        trace = PacketTrace()
        trace.record(make_record(kind="tx"))
        trace.record(make_record(kind="rx"))
        trace.record(make_record(kind="drop"))
        assert len(trace.transmissions()) == 1
        assert len(trace.filter(kind="drop")) == 1
        assert len(trace.filter(kind="rx")) == 1

    def test_filter_by_link_and_node(self):
        trace = PacketTrace()
        trace.record(make_record(link="l1", node="a"))
        trace.record(make_record(link="l2", node="b"))
        assert len(trace.filter(link_name="l1")) == 1
        assert len(trace.filter(node_name="b")) == 1
        assert len(trace.filter(link_name="l1", node_name="b")) == 0

    def test_filter_by_predicate(self):
        trace = PacketTrace()
        trace.record(make_record(time=1.0))
        trace.record(make_record(time=5.0))
        assert len(trace.filter(predicate=lambda r: r.time > 2.0)) == 1

    def test_clear(self):
        trace = PacketTrace()
        trace.record(make_record())
        trace.clear()
        assert len(trace) == 0


class TestTraceIntegration:
    def test_network_records_rx_and_tx(self):
        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        net.add_p2p("ab", a, b)
        lan_a = net.add_subnet("lana", [a])
        lan_b = net.add_subnet("lanb", [b])
        ha = net.add_host("ha", lan_a)
        hb = net.add_host("hb", lan_b)
        net.converge()
        d = make_udp(ha.interface.address, hb.interface.address, 1, 1, b"")
        ha.originate(d)
        net.run()
        assert net.trace.transmissions()
        assert net.trace.first_delivery_time(d.uid, "hb") is not None

    def test_delivery_tracking_through_encapsulation(self):
        from repro.netsim.packet import PROTO_IPIP

        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        net.add_p2p("ab", a, b)
        net.converge()
        inner = IPDatagram(
            src=a.interfaces[0].address, dst=GROUP, proto=PROTO_UDP, payload=b""
        )
        outer = IPDatagram(
            src=a.interfaces[0].address,
            dst=b.interfaces[0].address,
            proto=PROTO_IPIP,
            payload=inner,
        )
        a.interfaces[0].send(outer, link_dst=b.interfaces[0].address)
        net.run()
        # The inner packet's uid is findable inside the encapsulation.
        assert net.trace.first_delivery_time(inner.uid, "b") is not None


class TestWhereTheTraceIsRecorded:
    """The packet trace is recorded where it is read: the experiments
    and walkthroughs build Figure 1 with it, the cells and explorer
    worlds — which read counters and host logs — without it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every network constructed during the test."""
        networks = []
        init = Network.__init__

        def recording_init(network, *args, **kwargs):
            init(network, *args, **kwargs)
            networks.append(network)

        monkeypatch.setattr(Network, "__init__", recording_init)
        return networks

    @staticmethod
    def records(networks):
        return [(network.trace.enabled, len(network.trace)) for network in networks]

    def test_build_figure1_records(self):
        from repro.topology.figures import build_figure1

        net = build_figure1()
        host = net.host("A")
        host.originate(make_udp(host.interface.address, GROUP, 1, 1, b""))
        net.run()
        assert net.trace.enabled and net.trace.transmissions()

    def test_a_figure1_chaos_cell_records_nothing(self, built):
        from repro.harness.campaign import run_scenario

        cell = run_scenario("link_flap", topology="figure1", seed=1)
        assert cell.faults and cell.recovered
        assert self.records(built) == [(False, 0)]

    def test_each_baseline_compare_leg_records_nothing(self, built):
        from repro.harness.baseline_cell import run_baseline_compare_cell

        cell = run_baseline_compare_cell("link_flap", topology="figure1", seed=1)
        assert len(cell.outcomes) == 3
        assert self.records(built) == [(False, 0)] * 3

    @pytest.mark.parametrize("name", ["joins-race", "hpimdm-elections"])
    def test_an_explorer_world_records_nothing(self, built, name):
        from repro.explore import get_scenario, scenario_options
        from repro.explore.engine import run_schedule

        scenario = get_scenario(name)
        outcome = run_schedule(scenario, (), scenario_options(scenario, max_decisions=3))
        assert outcome.decisions
        assert self.records(built) == [(False, 0)]
