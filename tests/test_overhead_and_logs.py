"""Tests for the overhead metrics and the packet listing
(``repro trace --type packet``)."""


from repro.cli import main
from repro.harness.scenarios import send_data
from repro.metrics.overhead import trace_overhead
from tests.conftest import join_members


class TestTraceOverhead:
    def test_splits_control_and_data(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        figure1_network.trace.clear()
        send_data(figure1_network, "G", group, count=2)
        report = trace_overhead(figure1_network.trace)
        assert report.data_transmissions > 0
        assert report.data_bytes > 0
        # Keepalives run in the background: control traffic present.
        assert report.control_messages >= 0

    def test_join_phase_is_control_heavy(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        figure1_network.trace.clear()
        join_members(figure1_network, domain, group, ["A", "B", "H"])
        report = trace_overhead(figure1_network.trace)
        assert report.control_messages > 0
        assert report.data_transmissions == 0

    def test_cbt_control_overhead_by_type(self, figure1_full_tree):
        # Per-type control counts are the registry's tx counters.
        domain, group = figure1_full_tree
        registry = domain.telemetry.registry
        assert registry.total("cbt.router.*.tx.join_request") >= 8
        assert registry.total("cbt.router.*.tx.join_ack") >= 8
        assert registry.total("cbt.router.*.tx.hello") > 0
        assert domain.control_messages_sent() == (
            registry.total("cbt.router.*.tx.*") - registry.total("cbt.router.*.tx.hello")
        )


class TestPacketLog:
    """The packet listing is ``repro trace --type packet``: the
    walkthrough's packet trace as ``repro-trace/1`` records."""

    @staticmethod
    def _listing(capsys, *argv):
        assert main(["trace", *argv]) == 0
        return capsys.readouterr().out.splitlines()

    def test_lists_transmissions(self, capsys):
        lines = self._listing(capsys, "--type", "packet", "--limit", "0")
        tx = [line for line in lines if "kind=tx" in line]
        assert tx and len(tx) < len(lines)  # rx records are listed too
        assert all("src=" in line and "dst=" in line and "size=" in line for line in tx)
        assert any("label=JOIN_REQUEST" in line for line in tx)

    def test_proto_filter(self, capsys):
        packets = self._listing(capsys, "--type", "packet", "--limit", "0")
        assert packets and all(" packet " in line for line in packets)
        protocol = self._listing(capsys, "--type", "protocol", "--limit", "0")
        assert protocol and not any(" packet " in line for line in protocol)

    def test_limit_and_overflow_note(self, capsys):
        lines = self._listing(capsys, "--type", "packet", "--limit", "3")
        assert len(lines) == 4
        assert all("kind=" in line for line in lines[:3])
        assert "more records" in lines[3]

    def test_empty(self, capsys):
        # The walkthrough injects no faults.
        assert self._listing(capsys, "--type", "fault") == ["(no records)"]


class TestDVMRPEdges:
    def test_prune_before_data_synthesises_entry(self):
        """A prune arriving before any data for (S,G) must not crash
        and must create consistent state from the RPF interface."""
        from repro.baselines.dvmrp import Prune
        from repro.harness.scenarios import build_dvmrp_group
        from repro.topology.generators import waxman_network

        net = waxman_network(8, seed=30)
        domain, group = build_dvmrp_group(net, ["H_N2"], prune_lifetime=60.0)
        p = domain.protocol("N1")
        source = net.host("H_N5").interface.address
        neighbour_iface = net.router("N1").interfaces[0]
        p._recv_prune(
            neighbour_iface,
            net.router("N2").primary_address,
            Prune(source=source, group=group, lifetime=60.0),
        )
        assert (source, group) in p.entries

    def test_probe_refresh_keeps_neighbours(self):
        from repro.harness.scenarios import build_dvmrp_group
        from repro.topology.generators import waxman_network

        net = waxman_network(6, seed=31)
        domain, group = build_dvmrp_group(net, ["H_N2"], prune_lifetime=60.0)
        net.run(until=net.scheduler.now + 60.0)
        p = domain.protocol("N0")
        live = set()
        for vif in range(len(net.router("N0").interfaces)):
            live |= p.neighbours.live(vif, net.scheduler.now)
        assert live  # probes every 10 s keep the table warm
