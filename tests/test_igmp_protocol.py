"""Tests for host- and router-side IGMP behaviour."""

from hypothesis import given, settings, strategies as st

from repro.igmp.host import IGMPHostAgent
from repro.igmp.router_side import IGMPConfig, IGMPRouterAgent
from repro.netsim.address import IPv4Address, group_address
from repro.topology.builder import Network

GROUP = group_address(0)
CORES = (IPv4Address("10.0.0.1"),)

FAST = IGMPConfig(
    query_interval=10.0,
    query_response_interval=2.0,
    startup_query_interval=0.2,
    last_member_query_interval=0.5,
)


def lan_with_routers(router_count=1, host_count=1):
    net = Network()
    routers = [net.add_router(f"r{i}") for i in range(router_count)]
    subnet = net.add_subnet("lan", routers)
    agents = [IGMPRouterAgent(r, config=FAST) for r in routers]
    hosts = [net.add_host(f"h{i}", subnet) for i in range(host_count)]
    host_agents = [IGMPHostAgent(h) for h in hosts]
    net.converge()
    for agent in agents:
        agent.start()
    return net, routers, agents, hosts, host_agents


class TestJoinLeave:
    def test_join_creates_membership(self):
        net, routers, agents, hosts, host_agents = lan_with_routers()
        net.run(until=1.0)
        host_agents[0].join(GROUP)
        net.run(until=2.0)
        assert agents[0].database.has_members(routers[0].interfaces[0], GROUP)

    def test_join_with_cores_sends_core_report_first(self):
        net, routers, agents, hosts, host_agents = lan_with_routers()
        seen = []
        agents[0].on_core_report(lambda iface, report: seen.append(report))
        changes = []
        agents[0].on_membership_change(
            lambda iface, group, present: changes.append((group, present))
        )
        net.run(until=1.0)
        host_agents[0].join(GROUP, cores=CORES)
        net.run(until=2.0)
        assert seen and seen[0].cores == CORES
        assert (GROUP, True) in changes

    def test_leave_triggers_group_query_and_expiry(self):
        net, routers, agents, hosts, host_agents = lan_with_routers()
        net.run(until=1.0)
        host_agents[0].join(GROUP)
        net.run(until=2.0)
        host_agents[0].leave(GROUP)
        net.run(until=10.0)
        assert not agents[0].database.has_members(routers[0].interfaces[0], GROUP)

    def test_remaining_member_answers_group_query(self):
        net, routers, agents, hosts, host_agents = lan_with_routers(host_count=2)
        net.run(until=1.0)
        host_agents[0].join(GROUP)
        host_agents[1].join(GROUP)
        net.run(until=2.0)
        host_agents[0].leave(GROUP)
        net.run(until=12.0)
        # host 1 is still a member; membership must survive.
        assert agents[0].database.has_members(routers[0].interfaces[0], GROUP)

    def test_leave_when_not_member_is_noop(self):
        net, routers, agents, hosts, host_agents = lan_with_routers()
        host_agents[0].leave(GROUP)  # must not raise
        assert not host_agents[0].is_member(GROUP)

    def test_membership_expires_without_reports(self):
        net, routers, agents, hosts, host_agents = lan_with_routers()
        net.run(until=1.0)
        host_agents[0].join(GROUP)
        net.run(until=2.0)
        # Silence the host: it stops answering queries entirely.
        hosts[0].interfaces[0].up = False
        timeout = FAST.membership_timeout
        net.run(until=2.0 + timeout + 2.0)
        assert not agents[0].database.has_members(routers[0].interfaces[0], GROUP)

    def test_periodic_queries_refresh_membership(self):
        net, routers, agents, hosts, host_agents = lan_with_routers()
        net.run(until=1.0)
        host_agents[0].join(GROUP)
        # Run well past the membership timeout: reports in response to
        # periodic queries must keep the membership alive.
        net.run(until=FAST.membership_timeout * 2)
        assert agents[0].database.has_members(routers[0].interfaces[0], GROUP)


class TestQuerierElection:
    def test_lowest_address_becomes_querier(self):
        net, routers, agents, hosts, host_agents = lan_with_routers(router_count=3)
        net.run(until=2.0)
        ifaces = [r.interfaces[0] for r in routers]
        lowest = min(range(3), key=lambda i: ifaces[i].address)
        for i in range(3):
            assert agents[i].is_querier(ifaces[i]) == (i == lowest)

    def test_querier_address_reported_consistently(self):
        net, routers, agents, hosts, host_agents = lan_with_routers(router_count=2)
        net.run(until=2.0)
        ifaces = [r.interfaces[0] for r in routers]
        lowest_address = min(i.address for i in ifaces)
        for agent, iface in zip(agents, ifaces):
            assert agent.querier_address(iface) == lowest_address

    def test_querier_resumes_after_silence(self):
        net, routers, agents, hosts, host_agents = lan_with_routers(router_count=2)
        net.run(until=2.0)
        ifaces = [r.interfaces[0] for r in routers]
        order = sorted(range(2), key=lambda i: ifaces[i].address)
        low, high = order[0], order[1]
        assert not agents[high].is_querier(ifaces[high])
        # The elected querier goes silent; the other must take over.
        for iface in routers[low].interfaces:
            iface.up = False
        net.run(until=2.0 + FAST.other_querier_timeout + FAST.query_interval + 2.0)
        assert agents[high].is_querier(ifaces[high])


class TestDatabaseQueries:
    def test_interfaces_with_and_groups_on(self):
        net, routers, agents, hosts, host_agents = lan_with_routers()
        net.run(until=1.0)
        host_agents[0].join(GROUP)
        net.run(until=2.0)
        iface = routers[0].interfaces[0]
        assert agents[0].database.interfaces_with(GROUP) == (iface.vif,)
        assert GROUP in agents[0].database.groups_on(iface)
        assert agents[0].any_member_subnet(GROUP)

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["report", "leave"]),
                    st.integers(min_value=0, max_value=2),
                    st.integers(min_value=0, max_value=2).map(group_address),
                ),
                # Past the leave timeout (3 s) and the membership
                # timeout (22 s) of ``FAST``, and short of both.
                st.tuples(st.just("wait"), st.sampled_from([0.5, 4.0, 25.0])),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_group_index_equals_the_interface_scan(self, ops):
        """``interfaces_with`` reads an index its two writers maintain;
        the scan it replaced stays here as the reference."""
        net = Network()
        router = net.add_router("r")
        for index in range(3):
            net.add_subnet(f"lan{index}", [router])
        net.converge()
        agent = IGMPRouterAgent(router, config=FAST)
        agent.start()
        database = agent.database
        expired = 0
        for op in ops:
            if op[0] == "wait":
                before = sum(map(len, database._by_interface.values()))
                net.run(until=net.scheduler.now + op[1])
                expired += before - sum(map(len, database._by_interface.values()))
            elif op[0] == "report":
                agent._handle_report(router.interfaces[op[1]], op[2])
            else:
                agent._handle_leave(router.interfaces[op[1]], op[2])
            for group in map(group_address, range(3)):
                scan = tuple(
                    vif
                    for vif, groups in database._by_interface.items()
                    if group in groups
                )
                assert database.interfaces_with(group) == scan, (op, group)
                assert agent.any_member_subnet(group) is bool(scan)
        if ops and ops[-1] == ("wait", 25.0):  # every membership timed out
            assert not any(database._by_interface.values())
            assert expired > 0 or not any(op[0] == "report" for op in ops)

    def test_second_group_tracked_independently(self):
        other = group_address(1)
        net, routers, agents, hosts, host_agents = lan_with_routers()
        net.run(until=1.0)
        host_agents[0].join(GROUP)
        host_agents[0].join(other)
        net.run(until=2.0)
        iface = routers[0].interfaces[0]
        assert agents[0].database.groups_on(iface) == {GROUP, other}
        host_agents[0].leave(other)
        net.run(until=12.0)
        assert agents[0].database.groups_on(iface) == {GROUP}


def line_with_lans():
    """``r0 — r1 — r2`` over point-to-point links; a LAN with two hosts
    hangs off ``r0`` and one with a host off ``r2``, ``r1`` has none."""
    net = Network()
    routers = [net.add_router(f"r{i}") for i in range(3)]
    net.add_p2p("p01", routers[0], routers[1])
    net.add_p2p("p12", routers[1], routers[2])
    lan0 = net.add_subnet("lan0", [routers[0]])
    lan2 = net.add_subnet("lan2", [routers[2]])
    agents = [IGMPRouterAgent(r, config=FAST) for r in routers]
    hosts = [net.add_host("h0", lan0), net.add_host("h1", lan0), net.add_host("h2", lan2)]
    host_agents = [IGMPHostAgent(h) for h in hosts]
    net.converge()
    for agent in agents:
        agent.start()
    return net, routers, agents, host_agents


class TestQueriesOnlyWhereHostsHear:
    """A router is querier on its multi-access links only: no IGMP query
    crosses a router-to-router point-to-point link."""

    def test_no_query_on_a_point_to_point_link(self):
        net, routers, agents, _ = line_with_lans()
        net.run(until=FAST.query_interval * 3 + 1.0)
        registry = net.telemetry.registry
        assert registry.value("igmp.router.r1.tx.query") == 0
        for name in ("p01", "p12"):
            assert net.link(name).attempt_count == 0, name
        # Each LAN got the start-up burst and one query per interval.
        general = FAST.startup_query_count + 3
        for index in (0, 2):
            assert registry.value(f"igmp.router.r{index}.tx.query") == general
            assert agents[index].stats.queries_sent == general
        assert registry.value("igmp.router.r1.rx.query") == 0
        # Querier state exists for the LAN interfaces alone.
        assert [sorted(agent._states) for agent in agents] == [
            [routers[0].lan_interfaces[0].vif],
            [],
            [routers[2].lan_interfaces[0].vif],
        ]
        assert agents[0].is_querier(routers[0].lan_interfaces[0])

    def test_lan_join_leave_and_expiry_behave_as_before(self):
        net, routers, agents, host_agents = line_with_lans()
        registry = net.telemetry.registry
        lan = routers[0].lan_interfaces[0]
        net.run(until=3.0)
        host_agents[0].join(GROUP)
        host_agents[1].join(GROUP)
        net.run(until=4.0)
        assert agents[0].database.has_members(lan, GROUP)
        # One member leaves: the querier sends its group-specific
        # queries on the LAN and the other member keeps the group.
        before = registry.value("igmp.router.r0.tx.query")
        host_agents[0].leave(GROUP)
        net.run(until=4.0 + FAST.last_member_query_interval * 2 + 0.1)
        assert (
            registry.value("igmp.router.r0.tx.query") - before
            == FAST.last_member_query_count
        )
        net.run(until=12.0)
        assert agents[0].database.has_members(lan, GROUP)
        # The last member goes silent: membership expires.
        host_agents[1].host.interfaces[0].up = False
        net.run(until=12.0 + FAST.membership_timeout + 2.0)
        assert not agents[0].database.has_members(lan, GROUP)
        for name in ("p01", "p12"):
            assert net.link(name).attempt_count == 0, name


class TestStartIsIdempotent:
    def test_a_second_start_sends_no_second_burst_and_arms_no_second_ticker(self):
        def run(starts):
            net, routers, agents, hosts, host_agents = lan_with_routers()
            state = agents[0]._states[routers[0].interfaces[0].vif]
            ticker = state.query_timer
            for _ in range(starts - 1):
                agents[0].start()
            net.run(until=FAST.query_interval * 2 + 1.0)
            # The interface's one ticker is still the one the first call armed.
            assert state.query_timer is ticker
            return agents[0].stats.queries_sent, net.scheduler.pending_events

        once = run(1)
        assert once[0] == FAST.startup_query_count + 2
        assert run(2) == once
