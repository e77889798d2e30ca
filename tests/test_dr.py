"""DR election tests (spec §2.3)."""

from repro import CBTDomain, group_address
from repro.core.dr import CBTNeighbourTable
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from repro.netsim.address import IPv4Address
from repro.routing.neighbours import NeighbourTable
from repro.topology.builder import Network


def multi_router_lan(cbt_names, non_cbt_names=()):
    """A LAN with both CBT and plain (non-CBT) routers attached.

    Attachment order fixes the address order: earlier names get lower
    addresses.
    """
    net = Network()
    order = list(cbt_names) + list(non_cbt_names)
    routers = {name: net.add_router(name) for name in order}
    subnet = net.add_subnet("lan", [routers[name] for name in order])
    net.add_host("h", subnet)
    net.converge()
    domain = CBTDomain(
        net,
        timers=FAST_TIMERS,
        igmp_config=FAST_IGMP,
        cbt_routers=list(cbt_names),
    )
    # Non-CBT routers still run IGMP (they might win querier duty).
    from repro.igmp.router_side import IGMPRouterAgent

    plain_agents = {
        name: IGMPRouterAgent(routers[name], config=FAST_IGMP)
        for name in non_cbt_names
    }
    domain.start()
    for agent in plain_agents.values():
        agent.start()
    net.run(until=3.0)
    return net, domain, routers, plain_agents


class TestQuerierIsDDR:
    def test_sole_router_is_ddr(self):
        net, domain, routers, _ = multi_router_lan(["r1"])
        p = domain.protocol("r1")
        assert p.dr_election.is_default_dr(routers["r1"].interfaces[0])

    def test_lowest_addressed_cbt_router_wins(self):
        net, domain, routers, _ = multi_router_lan(["low", "mid", "high"])
        assert domain.protocol("low").dr_election.is_default_dr(
            routers["low"].interfaces[0]
        )
        for name in ("mid", "high"):
            assert not domain.protocol(name).dr_election.is_default_dr(
                routers[name].interfaces[0]
            )

    def test_all_routers_agree_on_ddr_address(self):
        net, domain, routers, _ = multi_router_lan(["a", "b", "c"])
        addresses = {
            name: domain.protocol(name).dr_election.default_dr_address(
                routers[name].interfaces[0]
            )
            for name in ("a", "b", "c")
        }
        assert len(set(addresses.values())) == 1


class TestNonCBTQuerier:
    def test_non_cbt_querier_yields_dr_to_lowest_cbt_router(self):
        """Spec §2.3: if the elected querier is not CBT-capable, the
        lowest-addressed CBT router on the link is implicitly DR."""
        net = Network()
        plain = net.add_router("plain")
        cbt1 = net.add_router("cbt1")
        cbt2 = net.add_router("cbt2")
        subnet = net.add_subnet("lan", [plain, cbt1, cbt2])  # plain lowest
        net.add_host("h", subnet)
        net.converge()
        domain = CBTDomain(
            net,
            timers=FAST_TIMERS,
            igmp_config=FAST_IGMP,
            cbt_routers=["cbt1", "cbt2"],
        )
        from repro.igmp.router_side import IGMPRouterAgent

        plain_agent = IGMPRouterAgent(plain, config=FAST_IGMP)
        domain.start()
        plain_agent.start()
        net.run(until=3.0)
        # The plain router is the IGMP querier...
        assert plain_agent.is_querier(plain.interfaces[0])
        # ...but cbt1 (lowest CBT address) is the CBT D-DR.
        assert domain.protocol("cbt1").dr_election.is_default_dr(
            cbt1.interfaces[0]
        )
        assert not domain.protocol("cbt2").dr_election.is_default_dr(
            cbt2.interfaces[0]
        )

    def test_only_one_join_from_mixed_lan(self):
        net = Network()
        plain = net.add_router("plain")
        cbt1 = net.add_router("cbt1")
        cbt2 = net.add_router("cbt2")
        subnet = net.add_subnet("lan", [plain, cbt1, cbt2])
        core_router = net.add_router("core")
        net.add_p2p("up1", cbt1, core_router)
        net.add_p2p("up2", cbt2, core_router)
        net.add_host("h", subnet)
        net.converge()
        domain = CBTDomain(
            net,
            timers=FAST_TIMERS,
            igmp_config=FAST_IGMP,
            cbt_routers=["cbt1", "cbt2", "core"],
        )
        from repro.igmp.router_side import IGMPRouterAgent

        IGMPRouterAgent(plain, config=FAST_IGMP).start()
        group = group_address(0)
        domain.create_group(group, cores=["core"])
        domain.start()
        net.run(until=3.0)
        domain.join_host("h", group)
        net.run(until=8.0)
        originated = sum(
            domain.protocol(n).stats.sent.get("JOIN_REQUEST", 0)
            for n in ("cbt1", "cbt2")
        )
        assert originated == 1
        assert domain.protocol("cbt1").is_on_tree(group)


class TestNeighbourTable:
    """The one neighbour table every leg keeps, its hold set at
    construction."""

    def test_heard_and_expiry(self):
        table = NeighbourTable(hold=180.0)
        addr = IPv4Address("10.0.0.9")
        table.heard(0, addr, now=100.0)
        assert table.knows(0, addr)
        assert table.expire(now=100.0 + 200.0) == [(0, addr)]
        assert not table.knows(0, addr)

    def test_refresh_prevents_expiry(self):
        table = NeighbourTable(hold=180.0)
        addr = IPv4Address("10.0.0.9")
        table.heard(0, addr, now=0.0)
        table.heard(0, addr, now=150.0)
        assert table.expire(now=200.0) == []
        assert table.knows(0, addr)

    def test_a_silenced_neighbour_is_gone_from_its_vif(self):
        table = NeighbourTable(hold=180.0)
        addr = IPv4Address("10.0.0.9")
        table.heard(1, addr, now=0.0)
        table.expire(now=181.0)
        assert not table.knows(1, addr)

    def test_per_vif_isolation(self):
        table = NeighbourTable(hold=180.0)
        addr = IPv4Address("10.0.0.9")
        table.heard(0, addr, now=0.0)
        assert not table.knows(1, addr)

    def test_heard_returns_whether_the_neighbour_was_new(self):
        """``_recv_hello`` introduces itself back to exactly the
        neighbours ``heard`` reports as new."""
        table = NeighbourTable(hold=180.0)
        addr, other = IPv4Address("10.0.0.9"), IPv4Address("10.0.0.7")
        assert table.heard(0, addr, now=0.0) is True  # first HELLO
        assert table.heard(0, addr, now=60.0) is False  # refresh
        assert table.heard(0, addr, now=61.0) is False
        assert table.on_vif(0) == {addr: 61.0}  # ... and it did refresh
        assert table.heard(1, addr, now=61.0) is True  # per-vif independence
        assert table.heard(0, other, now=61.0) is True
        table.expire(now=61.0 + 200.0)
        assert table.heard(0, addr, now=262.0) is True  # new again after expiry
        assert table.expire(now=443.0) == [(0, addr)]  # silenced again
        assert table.heard(0, addr, now=443.0) is True  # ... and new again
        assert table.heard(0, addr, now=444.0) is False

    def test_live_through_the_hold_and_held_until_expired(self):
        table = NeighbourTable(hold=10.0)
        addr = IPv4Address("10.0.0.9")
        table.heard(0, addr, now=5.0)
        assert table.live(0, now=15.0) == {addr} and table.has_live(0, now=15.0)
        assert table.live(0, now=15.5) == set() and not table.has_live(0, now=15.5)
        assert table.knows(0, addr)  # silent, but not yet expired
        assert table.live(1, now=5.0) == set() and not table.has_live(1, now=5.0)

    def test_expire_returns_what_it_dropped_in_vif_address_order(self):
        table = NeighbourTable(hold=10.0)
        a, b, c = (IPv4Address(f"10.0.0.{i}") for i in (9, 3, 5))
        for vif, address, now in ((2, a, 0.0), (0, a, 0.0), (2, b, 0.0), (1, c, 5.0), (0, c, 0.0)):
            table.heard(vif, address, now)
        assert table.expire(now=12.0) == [(0, c), (0, a), (2, b), (2, a)]
        # A vif stays listed once a beacon was heard on it.
        assert dict(table.items()) == {2: {}, 0: {}, 1: {c: 5.0}}
        assert table.expire(now=12.0) == []


class TestCBTNeighbourTable:
    """The groups a CBT neighbour's HELLOs announce, on top of the table."""

    def test_announcements_lapse_after_the_hold_and_with_their_neighbour(self):
        table = CBTNeighbourTable(hold=10.0)
        rx, ry = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        g1, g2 = IPv4Address("239.0.0.1"), IPv4Address("239.0.0.2")
        table.heard(0, rx, now=0.0)
        table.announce(0, rx, 0.0, (g1, g2))
        table.heard(0, ry, now=4.0)
        table.announce(0, ry, 4.0, (g1,))
        assert table.tree_announcers(0, g1, now=10.0) == [rx, ry]
        assert table.tree_announcers(0, g1, now=10.5) == [ry]
        assert table.tree_announcers(1, g1, now=0.0) == []
        table.heard(0, rx, now=8.0)
        table.announce(0, rx, 8.0, (g2,))
        assert table.expire(now=12.0) == []
        assert table.tree_announcers(0, g1, now=12.0) == [ry]  # rx's g1 aged out
        assert table.tree_announcers(0, g2, now=12.0) == [rx]
        assert table.expire(now=14.5) == [(0, ry)]
        assert table.tree_announcers(0, g1, now=12.0) == []  # gone with ry
        assert table.expire(now=18.5) == [(0, rx)]
        assert table.tree_announcers(0, g2, now=18.0) == []  # gone with rx
