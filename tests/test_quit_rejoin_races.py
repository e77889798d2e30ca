"""Regression tests for quit/rejoin timer races (stale callbacks).

These pin down protocol bugs surfaced by the invariant auditor while
building the chaos campaigns:

* a completed quit must tear down its retry chain, not leave a stale
  callback firing into a later quit (or a new parent) for the group;
* a QUIT_ACK is only meaningful from the parent the quit was sent to;
* a JOIN arriving while the router's own quit is in flight must keep
  the new child attached (the parent may already have dropped us);
* a rejoin whose target core is unreachable must keep a live retry
  driver instead of stranding the group in rejoin state forever.
"""

from repro.core.constants import MessageType
from repro.core.messages import CBTControlMessage
from repro.harness.scenarios import send_data
from repro.netsim.address import IPv4Address
from tests.conftest import join_members


def run_quiet(network, seconds):
    network.run(until=network.scheduler.now + seconds)


class DropControlType:
    """Loss model dropping every CBT control message of one type."""

    def __init__(self, msg_type):
        self.msg_type = msg_type
        self.dropped = 0

    def __call__(self, datagram) -> bool:
        inner = getattr(datagram.payload, "payload", None)
        if (
            isinstance(inner, CBTControlMessage)
            and inner.msg_type == self.msg_type
        ):
            self.dropped += 1
            return True
        return False


class TestQuitRetryChain:
    def test_ack_cancels_retry_chain(self, figure1_domain, figure1_network):
        """After a clean quit, no retry timer may survive to refire."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A", "B"])
        domain.leave_host("B", group)
        run_quiet(figure1_network, 30.0)
        p2 = domain.protocol("R2")
        assert p2.events_of("quit")
        assert group not in p2._quitting
        assert not p2._quit_timers
        # A stale chain would resend QUIT_REQUEST on its next firing.
        sent_before = p2.stats.sent.get("QUIT_REQUEST", 0)
        run_quiet(figure1_network, p2.timers.pend_join_interval * 4)
        assert p2.stats.sent.get("QUIT_REQUEST", 0) == sent_before
        assert not p2.events_of("quit_forced")

    def test_quit_ack_only_honoured_from_quit_parent(
        self, figure1_domain, figure1_network
    ):
        """A QUIT_ACK from anyone but the quit's parent is stale."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["H"])
        p10 = domain.protocol("R10")
        parent = p10.fib.get(group).parent_address
        # Keep the quit outstanding: acks from the real parent are lost.
        figure1_network.link("L_R9_R10").loss = DropControlType(
            MessageType.QUIT_ACK
        )
        domain.leave_host("H", group)
        # IGMP leave latency dominates; poll until the quit is pending.
        for _ in range(60):
            if group in p10._quitting:
                break
            run_quiet(figure1_network, 0.1)
        assert group in p10._quitting
        stray = CBTControlMessage(
            msg_type=MessageType.QUIT_ACK,
            code=0,
            group=group,
            origin=IPv4Address("10.99.99.99"),
        )
        p10._recv_quit_ack(None, IPv4Address("10.99.99.99"), stray)
        assert group in p10._quitting, "stale ack cleared a live quit"
        p10._recv_quit_ack(None, parent, stray)
        assert group not in p10._quitting
        assert not p10._quit_timers


class TestJoinWhileQuitting:
    def test_new_child_aborts_quit_and_revalidates_upstream(
        self, figure1_domain, figure1_network
    ):
        """H leaves and promptly rejoins while R8's quit toward R4 is
        still unacknowledged: R8 must keep the new downstream attached
        and re-validate its own upstream path."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["H"])
        # R8's quit (the top of the teardown cascade) never completes.
        figure1_network.link("L_R4_R8").loss = DropControlType(
            MessageType.QUIT_ACK
        )
        domain.leave_host("H", group)
        p8 = domain.protocol("R8")
        # IGMP leave latency dominates; poll until the cascade reaches
        # R8 and its (unackable) quit toward R4 is outstanding.
        for _ in range(80):
            if group in p8._quitting:
                break
            run_quiet(figure1_network, 0.1)
        assert group in p8._quitting
        domain.join_host("H", group)
        run_quiet(figure1_network, 15.0)
        assert p8.events_of("quit_cancelled")
        assert group not in p8._quitting
        for name in ("R8", "R9", "R10"):
            assert domain.protocol(name).is_on_tree(group), name
        domain.assert_tree_consistent(group)
        uid = send_data(figure1_network, "D", group, count=1)[0]
        copies = sum(
            1 for d in figure1_network.host("H").delivered if d.uid == uid
        )
        assert copies == 1


class TestRejoinNoRoute:
    def test_rejoin_keeps_live_driver_and_recovers(
        self, figure1_domain, figure1_network
    ):
        """R10 is cut off from every core: the rejoin must keep a live
        retry driver while isolated and reattach once the path heals."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["H"])
        p10 = domain.protocol("R10")
        timers = p10.timers
        figure1_network.fail_link("L_R9_R10")
        run_quiet(
            figure1_network,
            timers.echo_timeout + timers.echo_interval * 4,
        )
        assert p10.events_of("parent_lost")
        assert p10.events_of("no_route")
        # The stranding bug: rejoin state with no pending join and no
        # live retry timer means nothing will ever move the group again.
        if group in p10.rejoins:
            assert (
                group in p10.pending
                or p10._rejoin_timers.get(group) is not None
            ), "rejoin stranded with no retry driver"
        figure1_network.restore_link("L_R9_R10")
        run_quiet(
            figure1_network,
            timers.reconnect_timeout + timers.pend_join_timeout * 4,
        )
        assert p10.is_on_tree(group)
        domain.assert_tree_consistent(group)
        uid = send_data(figure1_network, "D", group, count=1)[0]
        copies = sum(
            1 for d in figure1_network.host("H").delivered if d.uid == uid
        )
        assert copies == 1

    def test_flush_rejoin_falls_back_to_reachable_core(
        self, figure1_domain, figure1_network
    ):
        """A flushed router whose primary core is unreachable must cycle
        to an alternate core instead of giving up after one no-route."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["H"])
        figure1_network.fail_link("L_R4_R8")
        timers = domain.protocol("R10").timers
        run_quiet(
            figure1_network,
            timers.echo_timeout
            + timers.echo_interval * 4
            + timers.reconnect_timeout,
        )
        # R8 re-homed under the secondary core R9; the flush cascade hit
        # R10, whose re-join toward the primary (R4) found no route.
        p10 = domain.protocol("R10")
        assert p10.is_on_tree(group)
        domain.assert_tree_consistent(group)
        # The branch now serves H from the secondary core's subtree.
        uid = send_data(figure1_network, "J", group, count=1)[0]
        copies = sum(
            1 for d in figure1_network.host("H").delivered if d.uid == uid
        )
        assert copies == 1
