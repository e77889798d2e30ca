"""Tests for the application layer (senders/receivers) and latency metrics."""

import pytest

from repro.app import APP_PORT, MulticastReceiver, MulticastSender, StreamStats
from repro.metrics.latency import delivery_latency
from repro.netsim.address import group_address as ga


@pytest.fixture
def conference(figure1_domain, figure1_network):
    """A/B/H as receivers on the Figure-1 group, senders attached."""
    domain, group = figure1_domain
    receivers = {}
    for name in ("A", "B", "H"):
        receiver = MulticastReceiver(
            figure1_network.host(name), domain.agent(name), group
        )
        receiver.join(cores=domain.coordinator.cores_for(group))
        receivers[name] = receiver
    figure1_network.run(until=6.0)
    return domain, group, receivers


class TestSenderReceiver:
    def test_sequenced_delivery(self, conference, figure1_network):
        domain, group, receivers = conference
        sender = MulticastSender(figure1_network.host("A"), group)
        sender.send(count=5)
        figure1_network.run(until=figure1_network.scheduler.now + 2.0)
        for name in ("B", "H"):
            stats = receivers[name].stats_for("A")
            assert stats.received == 5
            assert stats.duplicates == 0
            assert stats.reordered == 0

    def test_sender_does_not_hear_itself(self, conference, figure1_network):
        domain, group, receivers = conference
        sender = MulticastSender(figure1_network.host("A"), group)
        sender.send(count=3)
        figure1_network.run(until=figure1_network.scheduler.now + 2.0)
        assert receivers["A"].stats_for("A").received == 0

    def test_streaming(self, conference, figure1_network):
        domain, group, receivers = conference
        sender = MulticastSender(figure1_network.host("H"), group)
        sender.start_stream(interval=0.1)
        figure1_network.run(until=figure1_network.scheduler.now + 1.05)
        sender.stop_stream()
        figure1_network.run(until=figure1_network.scheduler.now + 1.0)
        received = receivers["A"].stats_for("H").received
        assert 10 <= received <= 12
        # stream stopped: nothing further arrives
        figure1_network.run(until=figure1_network.scheduler.now + 1.0)
        assert receivers["A"].stats_for("H").received == received

    def test_latencies_positive_and_bounded(self, conference, figure1_network):
        domain, group, receivers = conference
        sender = MulticastSender(figure1_network.host("B"), group)
        sender.send(count=2)
        figure1_network.run(until=figure1_network.scheduler.now + 2.0)
        stats = receivers["H"].stats_for("B")
        assert stats.mean_latency > 0
        assert stats.max_latency < 1.0

    def test_multiple_receivers_one_host(self, figure1_domain, figure1_network):
        """Receiver chaining: two groups on one host both account."""
        domain, g0 = figure1_domain
        g1 = ga(1)
        domain.create_group(g1, cores=["R9", "R4"])
        host_a = figure1_network.host("A")
        r0 = MulticastReceiver(host_a, domain.agent("A"), g0)
        r1 = MulticastReceiver(host_a, domain.agent("A"), g1)
        r0.join(cores=domain.coordinator.cores_for(g0))
        r1.join(cores=domain.coordinator.cores_for(g1))
        receiver_h0 = MulticastReceiver(
            figure1_network.host("H"), domain.agent("H"), g0
        )
        receiver_h0.join(cores=domain.coordinator.cores_for(g0))
        figure1_network.run(until=8.0)
        s0 = MulticastSender(figure1_network.host("H"), g0, stream_id="s0")
        s1 = MulticastSender(figure1_network.host("H"), g1, stream_id="s1")
        s0.send(2)
        s1.send(3)
        figure1_network.run(until=figure1_network.scheduler.now + 2.0)
        assert r0.stats_for("s0").received == 2
        assert r1.stats_for("s1").received == 3
        assert r0.stats_for("s1").received == 0

    def test_leave_stops_reception(self, conference, figure1_network):
        domain, group, receivers = conference
        receivers["B"].leave()
        figure1_network.run(until=figure1_network.scheduler.now + 20.0)
        sender = MulticastSender(figure1_network.host("A"), group)
        sender.send(count=2)
        figure1_network.run(until=figure1_network.scheduler.now + 2.0)
        assert receivers["B"].stats_for("A").received == 0
        assert receivers["H"].stats_for("A").received == 2


class TestStreamStats:
    def test_duplicate_detection(self):
        stats = StreamStats()
        stats.record(0, 0.1)
        stats.record(0, 0.1)
        assert stats.received == 1
        assert stats.duplicates == 1

    def test_reorder_detection(self):
        stats = StreamStats()
        stats.record(1, 0.1)
        stats.record(0, 0.1)
        assert stats.reordered == 1

    def test_loss_accounting(self):
        stats = StreamStats()
        stats.record(0, 0.1)
        stats.record(2, 0.1)
        assert 4 - stats.received == 2  # sequences 1 and 3 never arrived


class TestLatencyMetrics:
    def test_trace_latency_matches_app_latency(self, conference, figure1_network):
        """The trace-derived latency equals what the receiver saw."""
        domain, group, receivers = conference
        figure1_network.trace.clear()
        sender = MulticastSender(figure1_network.host("A"), group)
        sender.send(1)
        figure1_network.run(until=figure1_network.scheduler.now + 2.0)
        app_latency = receivers["H"].stats_for("A").mean_latency
        # find the data packet uid from the trace
        from repro.netsim.packet import PROTO_UDP

        tx = [
            r
            for r in figure1_network.trace.transmissions()
            if r.datagram.proto == PROTO_UDP
            and getattr(r.datagram.payload, "dport", None) == APP_PORT
        ]
        uid = tx[0].datagram.uid
        trace_latency = delivery_latency(figure1_network.trace, uid, "H")
        assert trace_latency == pytest.approx(app_latency, abs=1e-9)

    def test_lost_packet_reports_none(self, figure1_network):
        from repro.netsim.trace import PacketTrace

        assert delivery_latency(PacketTrace(), uid=12345, node_name="A") is None


class TestBandwidthModel:
    def test_serialisation_delay_applied(self):
        from repro.topology.builder import Network
        from repro.netsim.packet import make_udp

        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        # 8 kbit/s: a ~550-byte packet takes ~0.55 s to serialise.
        net.add_p2p("slow", a, b, delay=0.0, bandwidth_bps=8000.0)
        net.converge()
        d = make_udp(
            a.interfaces[0].address, b.interfaces[0].address, 1, 1, b"x"
        )
        a.interfaces[0].send(d, link_dst=b.interfaces[0].address)
        done = net.run()
        assert done == pytest.approx(d.size_bytes() * 8 / 8000.0)

    def test_fifo_queueing(self):
        from repro.topology.builder import Network
        from repro.netsim.packet import make_udp

        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        link = net.add_p2p("slow", a, b, delay=0.0, bandwidth_bps=8000.0)
        net.converge()
        sent_sizes = []
        for _ in range(3):
            d = make_udp(
                a.interfaces[0].address, b.interfaces[0].address, 1, 1, b"x"
            )
            sent_sizes.append(d.size_bytes())
            a.interfaces[0].send(d, link_dst=b.interfaces[0].address)
        done = net.run()
        one = sent_sizes[0] * 8 / 8000.0
        assert done == pytest.approx(3 * one, rel=0.05)
        assert link.queued_time > 0

    def test_invalid_bandwidth_rejected(self):
        from repro.topology.builder import Network

        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        with pytest.raises(ValueError):
            net.add_p2p("bad", a, b, bandwidth_bps=0.0)


class TestKernelFIB:
    """Spec §3: the FIB's mutators download the entry the data plane reads."""

    def test_kernel_mirrors_user_fib(self, figure1_domain, figure1_network):
        from repro.core.kernel import KernelEntry
        from tests.conftest import join_members

        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A", "B", "H"])
        on_tree = 0
        for name, protocol in domain.protocols.items():
            for entry in protocol.fib:
                on_tree += 1
                kernel = entry.kernel
                assert kernel == KernelEntry.from_user_entry(entry), name
                assert kernel.parent_address == entry.parent_address, name
                assert kernel.parent_vif == entry.parent_vif, name
                assert dict(kernel.children) == entry.children, name
                parent = set() if entry.parent_vif is None else {entry.parent_vif}
                assert kernel.tree_vifs == parent | set(entry.children.values()), name
        assert on_tree >= 4

    def test_downloads_counted_per_change(self, figure1_domain, figure1_network):
        from tests.conftest import join_members

        domain, group = figure1_domain
        fib = domain.protocol("R3").fib
        assert fib.downloads == 0
        join_members(figure1_network, domain, group, ["A"])
        joins = fib.downloads
        assert joins >= 1  # parent + child arrived
        children = len(fib.get(group).children)
        join_members(figure1_network, domain, group, ["B"])
        assert len(fib.get(group).children) == children + 1
        assert fib.downloads == joins + 1  # the new child is one more download

    def test_deletion_synced(self, figure1_domain, figure1_network):
        from tests.conftest import join_members

        domain, group = figure1_domain
        fib = domain.protocol("R10").fib
        join_members(figure1_network, domain, group, ["H"])
        assert len(fib) == 1
        assert fib.deletions == 0
        domain.leave_host("H", group)
        figure1_network.run(until=figure1_network.scheduler.now + 30.0)
        assert len(fib) == 0
        assert fib.deletions == 1
