"""Additional IGMP conformance details."""

from hypothesis import given, settings, strategies as st

from repro.igmp.host import IGMPHostAgent, _response_delay
from repro.igmp.router_side import IGMPConfig, IGMPRouterAgent
from repro.netsim.engine import Scheduler
from repro.topology.builder import Network

from repro.netsim.address import IPv4Address, group_address

GROUP = group_address(0)

FAST = IGMPConfig(
    query_interval=10.0,
    query_response_interval=2.0,
    startup_query_interval=0.2,
    last_member_query_interval=0.5,
)


class TestResponseDelay:
    @given(
        address=st.integers(min_value=1, max_value=2**32 - 1).map(IPv4Address),
        max_response=st.floats(min_value=0.1, max_value=30.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_delay_bounded_by_advertised_maximum(self, address, max_response):
        delay = _response_delay(address, max_response)
        assert 0 <= delay < max_response

    def test_deterministic_per_address(self):
        a = IPv4Address("10.0.0.7")
        assert _response_delay(a, 10.0) == _response_delay(a, 10.0)

    def test_different_hosts_stagger(self):
        delays = {
            _response_delay(IPv4Address(f"10.0.0.{i}"), 10.0) for i in range(1, 20)
        }
        assert len(delays) > 10  # most hosts pick distinct slots


class TestLeaveRace:
    def build(self, host_count=2):
        net = Network()
        router = net.add_router("r")
        lan = net.add_subnet("lan", [router])
        agent = IGMPRouterAgent(router, config=FAST)
        hosts = [net.add_host(f"h{i}", lan) for i in range(host_count)]
        host_agents = [IGMPHostAgent(h) for h in hosts]
        net.converge()
        agent.start()
        return net, router, agent, hosts, host_agents

    def test_pending_response_cancelled_by_leave(self):
        """A host that leaves while a query response is pending must
        not report membership afterwards."""
        net, router, agent, hosts, host_agents = self.build(1)
        net.run(until=1.0)
        host_agents[0].join(GROUP)
        net.run(until=2.0)
        reports_before = host_agents[0].stats.reports_sent
        # Trigger a general query, then leave before the response fires.
        agent._send_query(router.interfaces[0], group=None)
        host_agents[0].leave(GROUP)
        net.run(until=net.scheduler.now + FAST.query_response_interval + 1.0)
        # The only extra traffic is the leave itself, not a report.
        assert host_agents[0].stats.reports_sent == reports_before

    def test_rejoin_during_last_member_window(self):
        """Leave, then rejoin before the short expiry fires: membership
        must survive."""
        net, router, agent, hosts, host_agents = self.build(1)
        net.run(until=1.0)
        host_agents[0].join(GROUP)
        net.run(until=2.0)
        host_agents[0].leave(GROUP)
        net.run(until=net.scheduler.now + 0.3)
        host_agents[0].join(GROUP)
        net.run(until=net.scheduler.now + 15.0)
        assert agent.database.has_members(router.interfaces[0], GROUP)

    def test_two_leaves_one_member_remains(self):
        net, router, agent, hosts, host_agents = self.build(3)
        net.run(until=1.0)
        for ha in host_agents:
            ha.join(GROUP)
        net.run(until=2.0)
        host_agents[0].leave(GROUP)
        host_agents[1].leave(GROUP)
        net.run(until=net.scheduler.now + 15.0)
        assert agent.database.has_members(router.interfaces[0], GROUP)


class TestRoutingDeterminism:
    def test_equal_cost_tiebreak_stable(self):
        """Two equal-cost paths: the chosen next hop is identical
        across rebuilds and recomputes."""
        def build():
            net = Network()
            a, b, c, d = (net.add_router(x) for x in "abcd")
            net.add_p2p("ab", a, b)
            net.add_p2p("ac", a, c)
            net.add_p2p("bd", b, d)
            net.add_p2p("cd", c, d)
            lan = net.add_subnet("lan", [d])
            net.converge()
            target = IPv4Address(int(lan.network.network_address) + 1)
            return net, a, target

        net1, a1, t1 = build()
        net2, a2, t2 = build()
        hop1 = a1.best_route(t1).next_hop
        hop2 = a2.best_route(t2).next_hop
        assert hop1 == hop2
        net1.converge()
        assert a1.best_route(t1).next_hop == hop1


class TestSchedulerOrderingProperty:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sched = Scheduler()
        fired = []
        for delay in delays:
            sched.call_later(delay, (lambda d: (lambda: fired.append(d)))(delay))
        sched.run_until_idle()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
