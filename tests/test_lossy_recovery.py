"""§6 recovery regression tests under seeded (replayable) loss.

The paper's maintenance machinery — join retransmission on the
pend-join interval, echo keepalives with confirm-or-flush, and core
failover — must converge through sustained packet loss, not just clean
link failures.  All loss here flows through
:class:`repro.netsim.faults.SeededLoss`, so every run is replayable.
"""

from repro.harness.scenarios import send_data
from repro.netsim.address import IPv4Address
from repro.netsim.faults import SeededJitter, SeededLoss, derive_seed
from repro.netsim.packet import IPDatagram, PROTO_UDP
from tests.conftest import join_members


def run_quiet(network, seconds):
    network.run(until=network.scheduler.now + seconds)


def _probe(network, sender, group, member):
    uid = send_data(network, sender, group, count=1)[0]
    return sum(1 for d in network.host(member).delivered if d.uid == uid)


class TestSeededProcesses:
    def test_seeded_loss_replays_identically(self):
        d = IPDatagram(
            src=IPv4Address("10.0.0.1"),
            dst=IPv4Address("10.0.0.2"),
            proto=PROTO_UDP,
            payload=b"x",
        )
        a = SeededLoss(0.4, seed=derive_seed(7, "loss"))
        b = SeededLoss(0.4, seed=derive_seed(7, "loss"))
        c = SeededLoss(0.4, seed=derive_seed(8, "loss"))
        seq_a = [a(d) for _ in range(200)]
        seq_b = [b(d) for _ in range(200)]
        seq_c = [c(d) for _ in range(200)]
        assert seq_a == seq_b
        assert seq_a != seq_c
        assert a.offered == 200 and a.dropped == seq_a.count(True)

    def test_seeded_jitter_is_bounded_and_replayable(self):
        d = IPDatagram(
            src=IPv4Address("10.0.0.1"),
            dst=IPv4Address("10.0.0.2"),
            proto=PROTO_UDP,
            payload=b"x",
        )
        a = SeededJitter(0.25, seed=3)
        b = SeededJitter(0.25, seed=3)
        seq_a = [a(d) for _ in range(100)]
        seq_b = [b(d) for _ in range(100)]
        assert seq_a == seq_b
        assert all(0.0 <= delay <= 0.25 for delay in seq_a)


class TestJoinThroughLoss:
    def test_join_retransmits_until_acked(self, figure1_domain, figure1_network):
        """Half the packets on H's only path are lost; the pend-join
        retransmission timer (§9) must still get the branch built."""
        domain, group = figure1_domain
        loss = SeededLoss(0.5, seed=derive_seed(11, "join"))
        figure1_network.link("L_R9_R10").loss = loss
        join_members(figure1_network, domain, group, ["H"])
        p10 = domain.protocol("R10")
        timers = p10.timers
        run_quiet(figure1_network, timers.pend_join_timeout * 4)
        assert p10.is_on_tree(group)
        domain.assert_tree_consistent(group)
        assert loss.dropped > 0, "seeded loss never fired: test is vacuous"

    def test_delivery_restored_after_loss_burst_clears(
        self, figure1_domain, figure1_network
    ):
        """Sustained heavy loss on a tree link can flush the branch via
        the echo machinery; once the loss clears, §6 rejoin/fresh joins
        must restore end-to-end delivery."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["H"])
        assert _probe(figure1_network, "D", group, "H") == 1
        link = figure1_network.link("L_R9_R10")
        link.loss = SeededLoss(0.9, seed=derive_seed(11, "burst"))
        timers = domain.protocol("R10").timers
        run_quiet(
            figure1_network, timers.echo_timeout + timers.echo_interval * 4
        )
        link.loss = None
        run_quiet(
            figure1_network,
            timers.reconnect_timeout + timers.pend_join_timeout * 4,
        )
        p10 = domain.protocol("R10")
        assert p10.is_on_tree(group)
        domain.assert_tree_consistent(group)
        assert _probe(figure1_network, "D", group, "H") == 1


class TestCoreFailoverUnderLoss:
    def test_branches_fail_over_to_secondary_core_through_loss(
        self, figure1_domain, figure1_network
    ):
        """§6.1: the primary core dies while the failover path is
        lossy; branches must still converge on the secondary core.
        (R4's crash severs Figure 1, so both members sit in the
        component containing the secondary core R9.)"""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["G", "H"])
        figure1_network.link("L_R8_R9").loss = SeededLoss(
            0.3, seed=derive_seed(5, "failover")
        )
        figure1_network.fail_router("R4")
        timers = domain.protocol("R10").timers
        run_quiet(
            figure1_network,
            timers.echo_timeout
            + timers.reconnect_timeout
            + timers.pend_join_timeout * 6,
        )
        for name in ("R8", "R9", "R10"):
            assert domain.protocol(name).is_on_tree(group), name
        domain.assert_tree_consistent(group)
        assert _probe(figure1_network, "G", group, "H") == 1
