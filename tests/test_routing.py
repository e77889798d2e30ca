"""Tests for routing tables, SPF computation, and unicast forwarding."""

import heapq
import random

import pytest

from repro.netsim.address import IPv4Address
from repro.netsim.packet import PROTO_CBT, PROTO_IGMP, PROTO_UDP, IPDatagram, make_udp
from repro.topology.builder import Network
from repro.topology.figures import FIGURE1_MEMBERS
from repro.topology.generators import waxman_network


def line_of_routers(n, lan_tails=True):
    """r0 - r1 - ... - r(n-1), each with an optional stub LAN + host."""
    net = Network()
    routers = [net.add_router(f"r{i}") for i in range(n)]
    for i in range(n - 1):
        net.add_p2p(f"l{i}", routers[i], routers[i + 1])
    hosts = []
    if lan_tails:
        for i, router in enumerate(routers):
            subnet = net.add_subnet(f"lan{i}", [router])
            hosts.append(net.add_host(f"h{i}", subnet))
    net.converge()
    return net, routers, hosts


def unicast_heard(host):
    """The uids of the UDP datagrams ``host`` is handed from now on
    (a host dispatches unicast addressed to it and keeps none)."""
    heard = []
    host.register_handler(
        PROTO_UDP, lambda node, interface, datagram: heard.append(datagram.uid)
    )
    return heard


def spf_distance(routing, src, dst):
    """Metric distance between two routers over the current adjacency
    and cost overrides (inf if cut off): the Dijkstra ``recompute``
    installs routes from, read without a recompute."""
    return routing._dijkstra(src, routing._costed_adjacency())[0].get(dst.name, float("inf"))


def route_path(routers, src, address):
    """The routers ``src``'s installed routes lead through toward
    ``address``, up to the one attached to it."""
    path = [src]
    while not path[-1].owns_address(address) and not path[-1].interface_toward(address):
        next_hop = path[-1].table.lookup(address).next_hop
        path.append(next(router for router in routers if router.owns_address(next_hop)))
    return path


class TestSPF:
    def test_route_metrics_reflect_hop_count(self):
        net, routers, hosts = line_of_routers(4)
        route = routers[0].table.lookup(hosts[3].interface.address)
        assert route is not None
        assert route.metric == pytest.approx(3.0)

    def test_next_hop_is_adjacent(self):
        net, routers, hosts = line_of_routers(3)
        route = routers[0].table.lookup(hosts[2].interface.address)
        assert route.next_hop in {i.address for i in routers[1].interfaces}

    def test_direct_subnets_not_in_table(self):
        net, routers, hosts = line_of_routers(2)
        own = routers[0].interfaces[0].network
        assert all(r.prefix != own for r in routers[0].table)

    def test_best_route_covers_direct(self):
        net, routers, hosts = line_of_routers(2)
        route = routers[0].best_route(hosts[0].interface.address)
        assert route is not None and route.next_hop is None

    def test_cost_preference(self):
        net = Network()
        a, b, c = (net.add_router(x) for x in "abc")
        net.add_p2p("cheap1", a, b, cost=1)
        net.add_p2p("cheap2", b, c, cost=1)
        net.add_p2p("expensive", a, c, cost=10)
        lan = net.add_subnet("lan", [c])
        net.converge()
        target = IPv4Address(int(lan.network.network_address) + 99)
        route = a.best_route(target)
        # Metric counts the distance to the attached router (a->b->c);
        # the stub LAN itself adds nothing.
        assert route.metric == pytest.approx(2.0)
        assert route.next_hop in {i.address for i in b.interfaces}

    def test_failure_reroutes(self):
        net = Network()
        a, b, c = (net.add_router(x) for x in "abc")
        net.add_p2p("ab", a, b, cost=1)
        net.add_p2p("bc", b, c, cost=1)
        net.add_p2p("ac", a, c, cost=5)
        lan = net.add_subnet("lan", [c])
        net.converge()
        target = IPv4Address(int(lan.network.network_address) + 9)
        assert a.best_route(target).metric == pytest.approx(2.0)
        net.fail_link("bc")
        assert a.best_route(target).metric == pytest.approx(5.0)
        net.restore_link("bc")
        assert a.best_route(target).metric == pytest.approx(2.0)

    def test_partition_removes_routes(self):
        net, routers, hosts = line_of_routers(3)
        net.fail_link("l0")
        assert routers[0].best_route(hosts[2].interface.address) is None

    def test_cost_override_changes_path(self):
        net = Network()
        a, b, c = (net.add_router(x) for x in "abc")
        ab = net.add_p2p("ab", a, b, cost=1)
        bc = net.add_p2p("bc", b, c, cost=1)
        ac = net.add_p2p("ac", a, c, cost=3)
        lan = net.add_subnet("lan", [c])
        net.routing.override_cost(a, ab, 10.0)
        net.converge()
        target = IPv4Address(int(lan.network.network_address) + 2)
        # a now sees a->b at cost 10, so the direct a-c link wins.
        assert a.best_route(target).interface.link is ac

    def test_path_helper_follows_routes(self):
        net, routers, hosts = line_of_routers(4)
        path = route_path(routers, routers[0], hosts[3].interface.address)
        assert [r.name for r in path] == ["r0", "r1", "r2", "r3"]

    def test_distance_helper(self):
        net, routers, _ = line_of_routers(4, lan_tails=False)
        assert spf_distance(net.routing, routers[0], routers[3]) == pytest.approx(3.0)
        net.fail_link("l1")
        assert spf_distance(net.routing, routers[0], routers[3]) == float("inf")

    def test_distance_to_self_is_zero(self):
        net, routers, _ = line_of_routers(3, lan_tails=False)
        for router in routers:
            assert spf_distance(net.routing, router, router) == 0.0
        # Still zero after a topology change invalidates the caches.
        net.fail_link("l0")
        assert spf_distance(net.routing, routers[0], routers[0]) == 0.0

    def test_distance_and_path_under_cost_override(self):
        net = Network()
        a, b, c = (net.add_router(x) for x in "abc")
        ab = net.add_p2p("ab", a, b, cost=1)
        net.add_p2p("bc", b, c, cost=1)
        net.add_p2p("ac", a, c, cost=3)
        lan = net.add_subnet("lan", [c])
        net.converge()
        # Symmetric costs: a reaches c through b at 2.0.
        assert spf_distance(net.routing, a, c) == pytest.approx(2.0)
        net.routing.override_cost(a, ab, 10.0)
        net.converge()
        # Override only affects a's view of a->b; the direct link wins.
        assert spf_distance(net.routing, a, c) == pytest.approx(3.0)
        target = IPv4Address(int(lan.network.network_address) + 2)
        assert [r.name for r in route_path([a, b, c], a, target)] == ["a", "c"]
        net.routing.clear_overrides()
        net.converge()
        assert spf_distance(net.routing, a, c) == pytest.approx(2.0)

    def test_distance_tracks_link_flip_without_explicit_recompute(self):
        # Topology observers must invalidate the cached distances even
        # when nobody calls converge()/recompute() after the flip.
        net, routers, _ = line_of_routers(4, lan_tails=False)
        assert spf_distance(net.routing, routers[0], routers[3]) == pytest.approx(3.0)
        net.fail_link("l1", reconverge=False)
        assert spf_distance(net.routing, routers[0], routers[3]) == float("inf")
        net.restore_link("l1", reconverge=False)
        assert spf_distance(net.routing, routers[0], routers[3]) == pytest.approx(3.0)


class TestUnicastForwarding:
    def test_host_to_host_across_routers(self):
        net, routers, hosts = line_of_routers(3)
        d = make_udp(
            hosts[0].interface.address, hosts[2].interface.address, 1234, 80, b"hi"
        )
        heard = unicast_heard(hosts[2])
        hosts[0].originate(d)
        net.run()
        assert heard == [d.uid]

    def test_ttl_expiry_stops_forwarding(self):
        net, routers, hosts = line_of_routers(4)
        d = make_udp(
            hosts[0].interface.address, hosts[3].interface.address, 1234, 80, b"", ttl=2
        )
        heard = unicast_heard(hosts[3])
        hosts[0].originate(d)
        net.run()
        assert heard == []

    def test_router_does_not_forward_packets_to_itself(self):
        net, routers, hosts = line_of_routers(2)
        target = routers[1].interfaces[0].address
        d = make_udp(hosts[0].interface.address, target, 1, 1, b"")
        handled = []
        routers[1].register_handler(
            PROTO_UDP, lambda node, interface, datagram: handled.append(datagram.uid)
        )
        hosts[0].originate(d)
        net.run()
        assert handled == [d.uid]
        assert routers[1].forwarded_count == 0

    def test_no_route_drops_silently(self):
        net, routers, hosts = line_of_routers(2)
        d = make_udp(
            hosts[0].interface.address, IPv4Address("203.0.113.7"), 1, 1, b""
        )
        hosts[0].originate(d)
        net.run()  # must simply not crash

    def test_host_without_gateway_cannot_reach_off_subnet(self):
        net, routers, hosts = line_of_routers(2)
        hosts[0].default_gateway = None
        d = make_udp(hosts[0].interface.address, hosts[1].interface.address, 1, 1, b"")
        heard = unicast_heard(hosts[1])
        hosts[0].originate(d)
        net.run()
        assert heard == []

    def test_hosts_do_not_retain_the_multicast_they_hear(
        self, figure1_full_tree, figure1_network
    ):
        """A host hears every HELLO and IGMP query on its LAN for as
        long as the network runs; it dispatches them and keeps none
        (the one list of datagrams it keeps, ``delivered``, is
        joined-group data)."""
        domain, group = figure1_full_tree
        # Past the next general query (FAST_IGMP asks every 30 s).
        figure1_network.run(until=figure1_network.scheduler.now + 35.0)
        registry = figure1_network.telemetry.registry
        for name, host in figure1_network.hosts.items():
            assert host.rx_count > 0, name
            for attr, held in vars(host).items():
                if isinstance(held, list):
                    kept = [
                        d
                        for d in held
                        if isinstance(d, IPDatagram) and d.proto in (PROTO_IGMP, PROTO_CBT)
                    ]
                    assert not kept, (name, attr)
            # ... and the handlers still ran: the agent counted the
            # queries, and a member answered them.
            assert registry.value(f"igmp.host.{name}.rx.query") > 0, name
        for name in FIGURE1_MEMBERS:
            assert domain.agent(name).stats.reports_sent > 1, name

    def test_forwarded_count_increments(self):
        net, routers, hosts = line_of_routers(3)
        d = make_udp(hosts[0].interface.address, hosts[2].interface.address, 1, 1, b"")
        hosts[0].originate(d)
        net.run()
        assert routers[0].forwarded_count >= 1
        assert routers[1].forwarded_count >= 1


class TestRoutingTable:
    def test_longest_prefix_match(self):
        from repro.routing.table import Route, RoutingTable
        from repro.netsim.address import IPv4Network

        net, routers, hosts = line_of_routers(2)
        iface = routers[0].interfaces[0]
        table = RoutingTable()
        broad = Route(IPv4Network("10.0.0.0/8"), iface, None, 1.0)
        narrow = Route(IPv4Network("10.0.1.0/24"), iface, None, 1.0)
        table.install(broad)
        table.install(narrow)
        assert table.lookup(IPv4Address("10.0.1.5")) is narrow
        assert table.lookup(IPv4Address("10.0.2.5")) is broad

    def test_clear(self):
        from repro.routing.table import Route, RoutingTable
        from repro.netsim.address import IPv4Network

        net, routers, hosts = line_of_routers(2)
        iface = routers[0].interfaces[0]
        table = RoutingTable()
        route = Route(IPv4Network("10.0.0.0/8"), iface, None, 1.0)
        table.install(route)
        assert len(table) == 1
        assert table.lookup(IPv4Address("10.0.0.1")) is route
        table.clear()
        assert len(table) == 0
        assert table.lookup(IPv4Address("10.0.0.1")) is None


class TestLookupAgreesWithLinearScan:
    """Property: the indexed + memoized lookup is observably identical to
    a naive longest-prefix linear scan, across installs, re-installs, bulk
    replacement, deferred providers/resolvers and clears (which must all
    invalidate the memo cache)."""

    @staticmethod
    def _iface():
        net = Network(trace_enabled=False)
        router = net.add_router("r")
        net.add_subnet("lan", [router])
        return router.interfaces[0]

    @staticmethod
    def _probes(prefixes):
        """Addresses worth checking: on-prefix, boundary, and misses."""
        from repro.netsim.address import IPv4Network

        probes = [IPv4Address("203.0.113.9"), IPv4Address("0.0.0.1")]
        for prefix in prefixes:
            net = IPv4Network(prefix)
            low = int(net.network_address)
            high = int(net.broadcast_address)
            probes.extend(
                IPv4Address(x)
                for x in (low, high, (low + high) // 2, (high + 1) & 0xFFFFFFFF)
            )
        return probes

    def _check_agreement(self, table, prefixes, reference=None):
        if reference is None:
            reference = table
        for address in self._probes(prefixes):
            first = table.lookup(address)
            assert first is reference.lookup_linear(address), address
            # The memoised answer is the same object, not an equal one.
            assert table.lookup(address) is first, address

    def test_randomized_tables(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.netsim.address import IPv4Network
        from repro.routing.table import Route, RoutingTable

        iface = self._iface()

        prefix_st = st.builds(
            lambda base, plen: IPv4Network((base, plen), strict=False),
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=0, max_value=32),
        )

        @settings(max_examples=60, deadline=None)
        @given(
            prefixes=st.lists(prefix_st, min_size=1, max_size=24, unique=True),
            data=st.data(),
        )
        def run(prefixes, data):
            table = RoutingTable()
            for i, prefix in enumerate(prefixes):
                table.install(Route(prefix, iface, None, float(i)))
            self._check_agreement(table, prefixes)

            # Re-install a random subset with new routes; the memo cache
            # must not serve the replaced routes.
            to_replace = data.draw(
                st.lists(st.sampled_from(prefixes), unique=True),
                label="re-installed",
            )
            for prefix in to_replace:
                table.install(Route(prefix, iface, None, 99.0))
                self._check_agreement(table, prefixes)

            # Bulk replacement (the SPF path) drops every memoised hit.
            kept = data.draw(
                st.lists(st.sampled_from(prefixes), unique=True),
                label="replaced with",
            )
            routes = [Route(prefix, iface, None, 7.0) for prefix in kept]

            def triples():
                return [
                    (int(r.prefix.network_address), r.prefix.prefixlen, r)
                    for r in routes
                ]

            table.replace_all(triples())
            self._check_agreement(table, prefixes)

            # A deferred provider empties the table until first access.
            table.set_provider(lambda: table.replace_all(triples()[:1]))
            self._check_agreement(table, prefixes)

            # A per-destination resolver answers index misses, and each
            # answer is memoised: one resolver call per destination.
            reference = RoutingTable()
            reference.replace_all(triples())
            asked = []

            def resolve(dest_int):
                asked.append(dest_int)
                return reference.lookup_linear(IPv4Address(dest_int))

            table.set_resolver(resolve)
            self._check_agreement(table, prefixes, reference)
            assert len(asked) == len(set(asked))

            table.clear()
            for address in self._probes(prefixes):
                assert table.lookup(address) is None

        run()

    def test_memo_overflow_still_agrees(self, monkeypatch):
        """The memo is bounded: past ``_LOOKUP_CACHE_MAX`` it is dropped
        wholesale, and answers before, at and after the wrap are right."""
        from repro.netsim.address import IPv4Network
        from repro.routing import table as table_module
        from repro.routing.table import Route, RoutingTable

        monkeypatch.setattr(table_module, "_LOOKUP_CACHE_MAX", 8)
        iface = self._iface()
        table = RoutingTable()
        prefixes = [IPv4Network(f"10.{i}.0.0/16") for i in range(6)]
        prefixes.append(IPv4Network("10.3.128.0/17"))
        for prefix in prefixes:
            table.install(Route(prefix, iface, None, 1.0))
        probes = self._probes(prefixes)
        assert len(set(probes)) > 2 * 8  # the memo wraps at least twice a pass
        for _ in range(2):
            self._check_agreement(table, prefixes)
            assert len(table._lookup_cache) <= 8

    def test_lookup_linear_reference_semantics(self):
        # Sanity-check the reference itself: longest prefix wins.

        from repro.netsim.address import IPv4Network
        from repro.routing.table import Route, RoutingTable

        iface = self._iface()
        table = RoutingTable()
        broad = Route(IPv4Network("10.0.0.0/8"), iface, None, 1.0)
        narrow = Route(IPv4Network("10.0.1.0/24"), iface, None, 1.0)
        table.install(broad)
        table.install(narrow)
        assert table.lookup_linear(IPv4Address("10.0.1.5")) is narrow
        assert table.lookup_linear(IPv4Address("10.0.2.5")) is broad
        assert table.lookup_linear(IPv4Address("11.0.0.1")) is None


class TestE2EKernels:
    """``benchmarks/e2e/kernels.py`` is frozen source that nothing in
    tier 1 runs; a kernel whose world emptied itself would go on
    reporting a (very good) number."""

    def test_spf_kernel_recomputes_over_a_whole_topology(self, monkeypatch):
        """It keeps ``waxman_network(120).routing`` and drops the
        network: the topology has to outlive the ``Network`` object."""
        from benchmarks.e2e import kernels
        from repro.routing.linkstate import LinkStateRouting

        seen = []
        recompute = LinkStateRouting.recompute

        def spy(routing):
            recompute(routing)
            seen.append((len(routing.routers), len(routing.links)))

        def once(batch, seconds=0.0):
            batch()
            return 1.0

        monkeypatch.setattr(LinkStateRouting, "recompute", spy)
        monkeypatch.setattr(kernels, "_best", once)
        kernels.spf_recompute()
        (routers, links), = set(seen)
        assert routers == 120 and links > routers


class TestOndemandAgreesWithEager:
    """The on-demand mode (one reverse Dijkstra per prefix, shared by
    every router; bulk topologies) against the eager mode (one Dijkstra
    per router and a full table install) on small Waxman worlds, with
    and without per-(router, link) cost overrides: every (router,
    prefix) metric is equal, and where one next hop alone is shortest
    both modes pick it.  A test-side Dijkstra over the same costs
    judges what "shortest" is.  Costs are small dyadic fractions, so
    summing a path forward or backward gives the same float."""

    SEEDS = range(12)

    @staticmethod
    def _cost(overrides, name, link):
        return overrides.get((name, link.name), link.cost)

    def _reference(self, routing, overrides):
        """``(expected, dists)`` derived from the links directly:
        per (router, link) not attached to it, the metric to the link's
        prefix and the shortest first hops toward it as (egress
        interface, next-hop address); per router, its distance to every
        router."""
        routers = routing.routers
        edges = {router.name: [] for router in routers}
        for link in routing.links:
            ends = [i for i in link.interfaces if i.node.name in edges]
            if not link.up:
                continue
            for own in ends:
                for peer in ends:
                    if peer is not own and own.up and peer.up:
                        edges[own.node.name].append(
                            (peer.node.name, link, own, peer)
                        )

        def dijkstra(source):
            dist, heap = {source: 0.0}, [(0.0, source)]
            while heap:
                d, name = heapq.heappop(heap)
                if d > dist[name]:
                    continue
                for other, link, _, _ in edges[name]:
                    nd = d + self._cost(overrides, name, link)
                    if nd < dist.get(other, float("inf")):
                        dist[other] = nd
                        heapq.heappush(heap, (nd, other))
            return dist

        dists = {router.name: dijkstra(router.name) for router in routers}
        attached = {
            link.name: {i.node.name for i in link.interfaces if i.node.name in edges}
            for link in routing.links
        }

        def metric(name, link):
            if name in attached[link.name]:
                return 0.0
            return min(
                (dists[name].get(a, float("inf")) for a in attached[link.name]),
                default=float("inf"),
            )

        expected = {}
        for router in routers:
            for link in routing.links:
                if router.name in attached[link.name]:
                    continue  # directly connected: not a table route
                m = metric(router.name, link)
                if m == float("inf"):
                    expected[router.name, link.name] = (None, set())
                    continue
                hops = {
                    (own, peer.address)
                    for other, hop_link, own, peer in edges[router.name]
                    if self._cost(overrides, router.name, hop_link) + metric(other, link)
                    == m
                }
                expected[router.name, link.name] = (m, hops)
        return expected, dists

    @staticmethod
    def _routes(routing):
        return {
            (router.name, link.name): router.table.lookup(link.interfaces[0].address)
            for router in routing.routers
            for link in routing.links
            if all(i.node is not router for i in link.interfaces)
        }

    def _compare(self, routing, overrides):
        expected, _ = self._reference(routing, overrides)
        routing.ondemand = False
        routing.recompute()
        eager = self._routes(routing)
        routing.ondemand = True
        routing.recompute()
        ondemand = self._routes(routing)
        assert eager.keys() == ondemand.keys() == expected.keys()
        tied = 0
        for key, (metric, hops) in expected.items():
            a, b = eager[key], ondemand[key]
            if metric is None:
                assert a is None and b is None, key
                continue
            assert a.metric == b.metric == metric, key
            assert a.prefix == b.prefix
            assert (a.interface, a.next_hop) in hops, key
            assert (b.interface, b.next_hop) in hops, key
            if len(hops) == 1:
                assert (a.interface, a.next_hop) == (b.interface, b.next_hop), key
            else:
                tied += 1
        return tied

    def _worlds(self):
        for seed in self.SEEDS:
            yield seed, waxman_network(8 + seed, alpha=0.5, seed=seed)

    def test_metrics_and_untied_next_hops_agree(self):
        tied = 0
        for seed, net in self._worlds():
            tied += self._compare(net.routing, {})
        assert tied  # the sweep does reach ties; they are judged by cost alone

    def test_agree_under_cost_overrides(self):
        for seed, net in self._worlds():
            rng = random.Random(seed)
            routing = net.routing
            overrides = {}
            for _ in range(4):
                router = rng.choice(routing.routers)
                link = rng.choice(router.interfaces).link
                cost = rng.choice((0.5, 2.0, 3.0))
                routing.override_cost(router, link, cost)
                overrides[router.name, link.name] = cost
            self._compare(routing, overrides)

    def test_agree_with_a_failed_link(self):
        for seed, net in self._worlds():
            link = sorted(net.links)[seed % len(net.links)]
            net.fail_link(link, reconverge=False)
            router = net.routing.routers[0]
            net.routing.override_cost(router, router.interfaces[0].link, 2.0)
            self._compare(net.routing, {(router.name, router.interfaces[0].link.name): 2.0})

    def test_distance_agrees_with_the_reference(self):
        for seed, net in self._worlds():
            routing = net.routing
            router = routing.routers[seed % len(routing.routers)]
            link = router.interfaces[0].link
            routing.override_cost(router, link, 3.0)
            _, dists = self._reference(routing, {(router.name, link.name): 3.0})
            for source in routing.routers:
                for other in routing.routers:
                    assert spf_distance(routing, source, other) == dists[source.name].get(
                        other.name, float("inf")
                    )
