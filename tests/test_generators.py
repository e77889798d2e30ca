"""Tests for topology generators and realisation into the simulator."""

import pytest

from repro.topology.generators import (
    barabasi_albert_graph,
    grid_graph,
    line_graph,
    realise,
    star_graph,
    transit_stub_graph,
    waxman_graph,
)


class TestWaxman:
    def test_node_count(self):
        assert len(waxman_graph(30, seed=1)) == 30

    def test_deterministic_per_seed(self):
        a = waxman_graph(20, seed=7)
        b = waxman_graph(20, seed=7)
        assert {frozenset((e.u, e.v)) for e in a.edges} == {
            frozenset((e.u, e.v)) for e in b.edges
        }

    def test_different_seeds_differ(self):
        a = waxman_graph(20, seed=1)
        b = waxman_graph(20, seed=2)
        assert {frozenset((e.u, e.v)) for e in a.edges} != {
            frozenset((e.u, e.v)) for e in b.edges
        }

    def test_always_connected(self):
        for seed in range(5):
            assert waxman_graph(25, seed=seed).is_connected()

    def test_alpha_controls_density(self):
        sparse = waxman_graph(30, alpha=0.05, seed=3)
        dense = waxman_graph(30, alpha=0.9, seed=3)
        assert len(dense.edges) > len(sparse.edges)

    def test_delays_positive(self):
        g = waxman_graph(20, seed=0)
        assert all(e.delay > 0 for e in g.edges)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            waxman_graph(1)


class TestOtherGenerators:
    def test_barabasi_albert_degree_skew(self):
        g = barabasi_albert_graph(50, m=2, seed=1)
        degrees = sorted((g.degree(n) for n in g.nodes), reverse=True)
        assert degrees[0] >= 3 * degrees[-1]
        assert g.is_connected()

    def test_barabasi_albert_validates_m(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(3, m=3)

    def test_grid_shape(self):
        g = grid_graph(3, 4)
        assert len(g) == 12
        assert len(g.edges) == 3 * 3 + 2 * 4  # rows*(cols-1) + (rows-1)*cols

    def test_line_diameter(self):
        g = line_graph(10)
        assert g.dijkstra("N0")[0]["N9"] == 9

    def test_star_center(self):
        g = star_graph(10)
        assert g.degree("N0") == 9
        assert g.center() == "N0"

    def test_transit_stub_two_levels(self):
        g = transit_stub_graph(transit_n=3, stubs_per_transit=2, stub_size=3, seed=0)
        assert g.is_connected()
        transit = [n for n in g.nodes if n.startswith("T")]
        stubs = [n for n in g.nodes if n.startswith("S")]
        assert len(transit) == 3
        assert len(stubs) == 3 * 2 * 3


class TestRealise:
    def test_realise_mirrors_graph(self):
        g = waxman_graph(12, seed=2)
        net = realise(g)
        assert set(net.routers) == set(g.nodes)
        assert len(net.hosts) == len(g.nodes)
        # One p2p link per edge plus one LAN per node.
        assert len(net.links) == len(g.edges) + len(g.nodes)

    def test_realised_routing_reaches_everywhere(self):
        g = waxman_graph(10, seed=3)
        net = realise(g)
        target = net.host("H_N0").interface.address
        for name in net.routers:
            if name == "N0":
                continue
            assert net.router(name).best_route(target) is not None, name

    def test_realise_without_hosts(self):
        g = line_graph(4)
        net = realise(g, with_hosts=False)
        assert not net.hosts
        assert len(net.links) == 3

    def test_realised_paths_match_graph_distances(self):
        g = line_graph(5)
        net = realise(g)
        route = net.router("N0").best_route(net.host("H_N4").interface.address)
        assert route.metric == pytest.approx(g.dijkstra("N0")[0]["N4"])


class TestFigure1Topology:
    def test_inventory(self, figure1_network):
        assert len(figure1_network.routers) == 12
        assert len(figure1_network.hosts) == 12
        subnets = [n for n in figure1_network.links if n.startswith("S")]
        assert len(subnets) == 15

    def test_walkthrough_routing_paths(self, figure1_network):
        net = figure1_network
        r4 = net.router("R4").primary_address
        # §2.5: R1's first hop toward R4 is R3.
        r1_next = net.router("R1").next_hop_toward(r4)
        assert r1_next in {i.address for i in net.router("R3").interfaces}
        # §2.6: R6's first hop toward R4 is R2, on the same subnet S4.
        r6_next = net.router("R6").next_hop_toward(r4)
        r2_s4 = net.router("R2").interface_on(net.link("S4").network)
        assert r6_next == r2_s4.address

    def test_s4_has_three_cbt_routers(self, figure1_network):
        link = figure1_network.link("S4")
        names = {i.node.name for i in link.interfaces} & set(figure1_network.routers)
        assert names == {"R2", "R5", "R6"}

    def test_r6_lowest_on_s4(self, figure1_network):
        """R6 must win querier (= D-DR) duty on S4 per the walk-through."""
        s4 = figure1_network.link("S4")
        router_addrs = {
            i.node.name: i.address
            for i in s4.interfaces
            if i.node.name in figure1_network.routers
        }
        assert min(router_addrs, key=lambda n: router_addrs[n]) == "R6"
