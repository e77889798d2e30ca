"""Tests for HELLO tree announcements (the CBTv2-style LAN-state extension).

HELLOs carry the sender's on-tree groups in the control header's five
core slots; LAN peers use them to (a) suppress redundant joins when an
attached router already serves the LAN, (b) yield a double-served LAN
to its D-DR, and (c) introduce themselves immediately to new
neighbours.  Every reader is on a multi-access LAN, so HELLOs go there
only: never onto a router-to-router point-to-point link.  And every
reader is another CBT router, so a LAN keeps the full HELLO rate only
while one is there to hear it (``TestHelloRule``).
"""

import pytest

from repro import CBTDomain, group_address
from repro.harness.campaign import run_scenario
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_data
from repro.netsim.link import PointToPointLink, Subnet
from repro.telemetry import payload_label
from repro.topology.builder import Network
from tests.conftest import join_members


def build_shared_lan():
    """Two uplinked routers on one member LAN (RX lower-addressed)."""
    net = Network()
    core = net.add_router("CORE")
    rx = net.add_router("RX")
    ry = net.add_router("RY")
    net.add_subnet("member_lan", [rx, ry])
    net.add_p2p("ux", core, rx)
    net.add_p2p("uy", core, ry)
    core_lan = net.add_subnet("core_lan", [core])
    net.add_host("M", net.link("member_lan"))
    net.add_host("S", core_lan)
    net.converge()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["CORE"])
    domain.start()
    net.run(until=3.0)
    return net, domain, group


class TestAnnouncements:
    def test_on_tree_groups_announced(self):
        net, domain, group = build_shared_lan()
        join_members(net, domain, group, ["M"])
        # Advance past a hello interval so announcements circulate.
        p = domain.protocol("RX")
        net.run(until=net.scheduler.now + p.timers.hello_interval + 1.0)
        ry = domain.protocol("RY")
        lan_vif = net.router("RY").interface_on(net.link("member_lan").network).vif
        announcers = ry.neighbours.tree_announcers(lan_vif, group, net.scheduler.now)
        rx_lan_addr = net.router("RX").interface_on(
            net.link("member_lan").network
        ).address
        assert rx_lan_addr in announcers

    def test_many_groups_chunked_across_hellos(self):
        net, domain, group0 = build_shared_lan()
        groups = [group0] + [group_address(i) for i in range(1, 8)]
        for g in groups[1:]:
            domain.create_group(g, cores=["CORE"])
        for g in groups:
            join_members(net, domain, g, ["M"], settle=0.5)
        p_rx = domain.protocol("RX")
        assert len(p_rx.fib) == 8
        net.run(until=net.scheduler.now + p_rx.timers.hello_interval + 1.0)
        ry = domain.protocol("RY")
        lan_vif = net.router("RY").interface_on(net.link("member_lan").network).vif
        # All 8 groups (> 5 slots) must be visible at the peer.
        for g in groups:
            assert ry.neighbours.tree_announcers(lan_vif, g, net.scheduler.now), g

    def test_introduction_carries_every_on_tree_group(self):
        """A neighbour RX has not heard from gets every group RX is on
        tree for at once, not only the first five slots' worth."""
        net, domain, group0 = build_shared_lan()
        groups = [group0] + [group_address(i) for i in range(1, 7)]
        for g in groups[1:]:
            domain.create_group(g, cores=["CORE"])
        for g in groups:
            join_members(net, domain, g, ["M"], settle=0.5)
        p_rx, p_ry = domain.protocol("RX"), domain.protocol("RY")
        assert len(p_rx.fib) == 7
        lan = net.link("member_lan").network
        rx_lan, ry_lan = net.router("RX").interface_on(lan), net.router("RY").interface_on(lan)
        # RY restarts its view of the LAN: the two forget each other,
        # then RY's HELLO makes it a new neighbour of RX.
        p_rx.neighbours.forget(rx_lan.vif, ry_lan.address)
        p_ry.neighbours.forget(ry_lan.vif, rx_lan.address)
        p_ry._send_hello(ry_lan, ())
        net.run(until=net.scheduler.now + 0.01)  # well inside a hello interval
        for g in groups:
            assert p_ry.neighbours.tree_announcers(ry_lan.vif, g, net.scheduler.now) == [
                rx_lan.address
            ], g

    def test_hello_hold_scales_with_timer_profile(self):
        net, domain, group = build_shared_lan()
        p = domain.protocol("RX")
        from repro.core.dr import HELLO_HOLD_TIME, HELLO_INTERVAL

        assert p.timers.hello_interval == pytest.approx(HELLO_INTERVAL * 0.1)
        assert p.timers.hello_hold == pytest.approx(HELLO_HOLD_TIME * 0.1)
        assert p.neighbours.hold == p.timers.hello_hold


class TestJoinSuppression:
    def test_ddr_does_not_rejoin_served_lan(self):
        """RX (D-DR) serves the LAN; a fresh membership transition on
        RY's side must not create a second join."""
        net, domain, group = build_shared_lan()
        join_members(net, domain, group, ["M"])
        assert domain.protocol("RX").is_on_tree(group)
        assert not domain.protocol("RY").is_on_tree(group)
        # Membership expires and re-appears (leave + rejoin): the
        # D-DR RX already serves the LAN, so join counts stay put.
        rx_joins_before = domain.protocol("RX").stats.sent.get("JOIN_REQUEST", 0)
        ry_joins_before = domain.protocol("RY").stats.sent.get("JOIN_REQUEST", 0)
        domain.leave_host("M", group)
        net.run(until=net.scheduler.now + 5.0)
        domain.join_host("M", group)
        net.run(until=net.scheduler.now + 5.0)
        assert domain.protocol("RY").stats.sent.get("JOIN_REQUEST", 0) == ry_joins_before

    def test_suppression_lifts_when_announcer_dies(self):
        net, domain, group = build_shared_lan()
        join_members(net, domain, group, ["M"])
        net.fail_router("RX")
        p_ry = domain.protocol("RY")
        horizon = (
            p_ry.timers.hello_hold
            + p_ry.timers.hello_interval * 2
            + FAST_TIMERS.iff_scan_interval * 2
            + FAST_IGMP.other_querier_timeout
            + FAST_IGMP.query_interval
        )
        net.run(until=net.scheduler.now + horizon)
        assert p_ry.is_on_tree(group)


class TestYield:
    def test_leaf_yields_lan_to_on_tree_ddr(self):
        """Force the double-service situation directly, then verify the
        non-D-DR leaf quits once it hears the D-DR's announcement."""
        net, domain, group = build_shared_lan()
        join_members(net, domain, group, ["M"])  # RX (D-DR) serves
        # Force RY on-tree too (as if it had joined during a querier
        # outage): a real join via its own uplink.
        p_ry = domain.protocol("RY")
        member_iface = net.router("RY").interface_on(
            net.link("member_lan").network
        )
        from repro.core.constants import JoinSubcode

        p_ry._originate_join(
            group,
            cores=p_ry.cores_for(group),
            target_core=p_ry.cores_for(group)[0],
            subcode=JoinSubcode.ACTIVE_JOIN,
            origin=member_iface.address,
        )
        # Within a hello interval RY hears RX's announcement and yields.
        net.run(until=net.scheduler.now + p_ry.timers.hello_interval * 2 + 2.0)
        assert not p_ry.is_on_tree(group)
        assert p_ry.events_of("yield_lan")
        # Delivery is exactly-once again afterwards.
        uid = send_data(net, "S", group, count=1)[0]
        assert sum(1 for d in net.host("M").delivered if d.uid == uid) == 1

    def test_ddr_itself_never_yields(self):
        net, domain, group = build_shared_lan()
        join_members(net, domain, group, ["M"])
        p_rx = domain.protocol("RX")
        net.run(until=net.scheduler.now + p_rx.timers.hello_interval * 3)
        assert p_rx.is_on_tree(group)
        assert not p_rx.events_of("yield_lan")

    def test_router_serving_other_lans_does_not_yield(self):
        """A router whose tree state also serves a private member LAN
        must not yield it because of a shared-LAN announcement."""
        net = Network()
        core = net.add_router("CORE")
        rx = net.add_router("RX")
        ry = net.add_router("RY")
        net.add_subnet("shared", [rx, ry])
        private = net.add_subnet("private", [ry])
        net.add_p2p("ux", core, rx)
        net.add_p2p("uy", core, ry)
        net.add_host("MS", net.link("shared"))
        net.add_host("MP", private)
        net.converge()
        domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        group = group_address(0)
        domain.create_group(group, cores=["CORE"])
        domain.start()
        net.run(until=3.0)
        # MP joins behind RY (its private LAN), MS behind RX (D-DR of shared).
        join_members(net, domain, group, ["MP", "MS"])
        p_ry = domain.protocol("RY")
        assert p_ry.is_on_tree(group)
        net.run(until=net.scheduler.now + p_ry.timers.hello_interval * 3)
        assert p_ry.is_on_tree(group)  # still serving its private LAN
        assert not p_ry.events_of("yield_lan")


class TestHellosStayOnLans:
    def test_figure1_hellos_cross_every_lan_and_no_p2p_link(
        self, figure1_domain, figure1_network
    ):
        """A started and settled Figure-1 world, its packet trace on."""
        domain, _ = figure1_domain
        net = figure1_network
        hellos = {
            (record.node_name, record.link_name)
            for record in net.trace.transmissions()
            if payload_label(record.datagram) == "HELLO"
        }
        p2p = {name for name, link in net.links.items() if isinstance(link, PointToPointLink)}
        assert p2p and not p2p & {link for _, link in hellos}
        lan_interfaces = {
            (name, interface.link.name)
            for name, protocol in domain.protocols.items()
            for interface in protocol.router.interfaces
            if isinstance(interface.link, Subnet)
        }
        assert lan_interfaces and lan_interfaces <= hellos

    def test_no_proxy_ack_or_lan_yield_across_a_p2p_link(self):
        """``partition`` on grid9 at seed 53 had N5 proxy-acked and then
        yielding a LAN it never shared: a neighbour learned over a
        point-to-point link."""
        result = run_scenario("partition", topology="grid9", seed=53)
        assert result.recovered
        assert not {
            name: value
            for name, value in result.telemetry.items()
            if name.endswith((".event.proxied", ".event.yield_lan")) and value
        }


class TestQueriesStayOnLans:
    def test_figure1_queries_cross_every_lan_and_no_p2p_link(
        self, figure1_domain, figure1_network
    ):
        """The IGMP general queries of a started Figure-1 world go out
        of every router's LAN interfaces and never onto a
        point-to-point link, where no host could answer one."""
        domain, _ = figure1_domain
        net = figure1_network
        queries = {
            (record.node_name, record.link_name)
            for record in net.trace.transmissions()
            if payload_label(record.datagram) == "MembershipQuery"
        }
        p2p = {name for name, link in net.links.items() if isinstance(link, PointToPointLink)}
        assert p2p and not p2p & {link for _, link in queries}
        lan_interfaces = {
            (name, interface.link.name)
            for name, protocol in domain.protocols.items()
            for interface in protocol.router.interfaces
            if isinstance(interface.link, Subnet)
        }
        assert lan_interfaces and lan_interfaces <= queries


def _hello_times(net, router, link):
    """When ``router`` sent a HELLO onto ``link``, from the packet trace."""
    return [
        record.time
        for record in net.trace.transmissions()
        if record.node_name == router
        and record.link_name == link
        and payload_label(record.datagram) == "HELLO"
    ]


def _knows(domain, net, router, peer, link="member_lan"):
    """Whether ``router`` lists ``peer`` as a CBT neighbour on ``link``."""
    network = net.link(link).network
    vif = net.router(router).interface_on(network).vif
    peer_address = net.router(peer).interface_on(network).address
    return domain.protocol(router).neighbours.knows(vif, peer_address)


class TestHelloRule:
    """``_hello_tick`` HELLOs a LAN (a) at every tick while a CBT
    neighbour is live there, (b) at the first tick after the interface
    was down or absent, and (c) otherwise once per hold time."""

    def test_lonely_lan_gets_the_startup_pair_then_one_hello_per_hold(self):
        net = Network()
        router = net.add_router("R")
        lan = net.add_subnet("lan", [router])
        net.add_host("H", lan)
        net.converge()
        domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        domain.start()
        p = domain.protocol("R")
        net.run(until=4 * p.timers.hello_hold + 1.0)
        assert _hello_times(net, "R", "lan") == pytest.approx(
            [0.0, 1.0] + [k * p.timers.hello_hold for k in range(1, 5)]
        )

    def test_shared_lan_keeps_the_full_rate_on_both_routers(self):
        net, domain, _ = build_shared_lan()
        interval = domain.protocol("RX").timers.hello_interval
        net.run(until=4 * domain.protocol("RX").timers.hello_hold + 1.0)
        ticks = pytest.approx([k * interval for k in range(1, 13)])
        for router in ("RX", "RY"):
            assert [t for t in _hello_times(net, router, "member_lan") if t > 1.5] == ticks

    def test_peers_that_lost_every_startup_hello_meet_within_a_hold(self):
        net = Network()
        rx, ry = net.add_router("RX"), net.add_router("RY")
        lan = net.add_subnet("member_lan", [rx, ry])
        net.add_host("M", lan)
        net.converge()
        # The start-up pairs (t=0 and t=1) never arrive.
        lan.gate = lambda link, sender, datagram: not (
            net.scheduler.now < 1.5 and payload_label(datagram) == "HELLO"
        )
        domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        domain.start()
        hold = domain.protocol("RX").timers.hello_hold
        net.run(until=hold - 1.0)
        assert not _knows(domain, net, "RX", "RY")
        assert not _knows(domain, net, "RY", "RX")
        net.run(until=hold + 0.1)
        assert _knows(domain, net, "RX", "RY") and _knows(domain, net, "RY", "RX")

    def test_an_interface_back_up_after_a_hold_is_helloed_at_the_next_tick(self):
        net, domain, _ = build_shared_lan()
        p = domain.protocol("RY")
        interface = net.router("RY").interface_on(net.link("member_lan").network)
        interface.up = False
        # Down from t=3 for longer than a hold, back up half an interval
        # before the 7th tick, which is not one of the once-a-hold ticks.
        back = net.scheduler.now + p.timers.hello_hold + 3 * p.timers.hello_interval
        net.run(until=back)
        assert not _knows(domain, net, "RX", "RY")
        assert not _knows(domain, net, "RY", "RX")
        interface.up = True
        net.run(until=back + p.timers.hello_interval)
        assert _knows(domain, net, "RX", "RY") and _knows(domain, net, "RY", "RX")
        assert [t for t in _hello_times(net, "RY", "member_lan") if t > back][:1] == (
            pytest.approx([back + p.timers.hello_interval / 2])
        )

    def test_a_lan_that_gains_a_second_router_mid_run(self):
        net = Network()
        rx, ry = net.add_router("RX"), net.add_router("RY")
        net.add_p2p("uplink", rx, ry)
        lan = net.add_subnet("member_lan", [rx])
        net.add_host("M", lan)
        net.converge()
        domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        domain.start()
        p = domain.protocol("RY")
        net.run(until=p.timers.hello_hold + p.timers.hello_interval / 2)
        attached = net.scheduler.now
        net.attach(ry, lan)
        net.converge()
        net.run(until=attached + p.timers.hello_interval)
        assert _knows(domain, net, "RX", "RY") and _knows(domain, net, "RY", "RX")
