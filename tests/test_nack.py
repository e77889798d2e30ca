"""JOIN_NACK semantics (§8.3 type 3): negative acknowledgements.

A transit router that cannot forward a join (no route / no live ranked
tunnel toward the target core) answers with JOIN_NACK; the originator
treats it like a failed attempt and cycles cores, and intermediate
routers propagate it downstream while clearing transient state.
"""


from repro import CBTDomain, group_address
from repro.core.tunnels import TunnelEntry, TunnelTable
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from repro.topology.builder import Network


def build_chain_with_dead_end():
    """member -- LEAF -- MID -- EDGE ~~tunnel~~ CORE.

    EDGE reaches CORE only through a ranked tunnel; with the tunnel
    down, EDGE must NACK joins, and the NACK crosses MID back to LEAF.
    """
    net = Network()
    core = net.add_router("CORE")
    edge = net.add_router("EDGE")
    mid = net.add_router("MID")
    leaf = net.add_router("LEAF")
    tunnel = net.add_p2p("tunnel", edge, core, mode="cbt")
    net.add_p2p("me", mid, edge)
    net.add_p2p("lm", leaf, mid)
    member_lan = net.add_subnet("member_lan", [leaf])
    net.add_host("M", member_lan)
    net.converge()

    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["CORE"])

    table = TunnelTable()
    t_iface = edge.interface_on(tunnel.network)
    table.configure(
        TunnelEntry(
            vif=t_iface.vif,
            kind="tunnel",
            mode="cbt",
            remote_address=core.interface_on(tunnel.network).address,
        )
    )
    table.rank(core.primary_address, [t_iface.vif])
    domain.protocol("EDGE").configure_tunnels(table)

    domain.start()
    net.run(until=3.0)
    return net, domain, group


class TestJoinNack:
    def test_dead_end_router_sends_nack(self):
        net, domain, group = build_chain_with_dead_end()
        net.fail_link("tunnel")
        domain.join_host("M", group)
        net.run(until=net.scheduler.now + 10.0)
        assert domain.protocol("EDGE").stats.sent.get("JOIN_NACK", 0) >= 1

    def test_nack_propagates_and_clears_transient_state(self):
        net, domain, group = build_chain_with_dead_end()
        net.fail_link("tunnel")
        domain.join_host("M", group)
        net.run(until=net.scheduler.now + 15.0)
        # MID forwarded the join (transient state), received the NACK,
        # propagated it to LEAF, and cleared its pending record.
        p_mid = domain.protocol("MID")
        assert p_mid.stats.sent.get("JOIN_NACK", 0) >= 1
        assert group not in p_mid.pending
        p_leaf = domain.protocol("LEAF")
        assert domain.telemetry.registry.value("cbt.router.LEAF.rx.join_nack") >= 1
        assert not p_leaf.is_on_tree(group)

    def test_originator_retries_and_succeeds_when_route_returns(self):
        net, domain, group = build_chain_with_dead_end()
        net.fail_link("tunnel")
        domain.join_host("M", group)
        net.run(until=net.scheduler.now + 5.0)
        assert not domain.protocol("LEAF").is_on_tree(group)
        # The tunnel comes back; the §6.1-style retries must land.
        net.restore_link("tunnel")
        net.run(
            until=net.scheduler.now
            + FAST_TIMERS.pend_join_timeout * 3
            + FAST_TIMERS.iff_scan_interval * 2
        )
        assert domain.protocol("LEAF").is_on_tree(group)
        domain.assert_tree_consistent(group)

    def test_healthy_chain_never_nacks(self):
        net, domain, group = build_chain_with_dead_end()
        domain.join_host("M", group)
        net.run(until=net.scheduler.now + 5.0)
        assert domain.protocol("LEAF").is_on_tree(group)
        for name in ("LEAF", "MID", "EDGE", "CORE"):
            assert domain.protocol(name).stats.sent.get("JOIN_NACK", 0) == 0
