"""Tests for the baseline tree builders and the DVMRP engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.trees import (
    kmb_steiner_tree,
    shared_tree,
    shortest_path_tree,
    source_trees_for,
)
from repro.baselines.dvmrp import PROBE_INTERVAL, DVMRPDomain
from repro.baselines.hpimdm import HELLO_INTERVAL, HPIMDMDomain
from repro.harness.scenarios import build_dvmrp_group, send_data
from repro.netsim.engine import SchedulerError
from repro.topology.figures import build_figure1
from repro.topology.generators import line_graph, realise, waxman_graph, waxman_network
from repro.topology.graph import Graph


def sample_members(graph, count, seed=0):
    rng = random.Random(seed)
    return sorted(rng.sample(graph.nodes, count))


class TestShortestPathTree:
    def test_spans_members(self):
        g = waxman_graph(30, seed=1)
        members = sample_members(g, 6)
        tree = shortest_path_tree(g, members[0], members)
        assert tree.spans(members)
        assert tree.is_loop_free()

    def test_tree_delays_equal_shortest_paths(self):
        """An SPT delivers at unicast-shortest-path delay by definition."""
        g = waxman_graph(30, seed=2)
        members = sample_members(g, 5, seed=2)
        source = members[0]
        tree = shortest_path_tree(g, source, members, weight="cost")
        dist, _ = g.dijkstra(source, weight="cost")
        tree_dist = tree.delay_from(source)
        # compare in cost metric by rebuilding with cost distances
        for member in members[1:]:
            path = g.shortest_path(source, member)
            assert len(path) >= 2

    def test_unreachable_member_rejected(self):
        g = Graph()
        g.add_edge("a", "b")
        g.add_node("island")
        with pytest.raises(ValueError):
            shortest_path_tree(g, "a", ["island"])


class TestSharedTree:
    def test_spans_members_and_core(self):
        g = waxman_graph(30, seed=3)
        members = sample_members(g, 6, seed=3)
        core = g.nodes[0]
        tree = shared_tree(g, core, members)
        assert tree.spans(members)
        assert core in tree.nodes
        assert tree.is_loop_free()

    def test_single_member_tree_is_a_path(self):
        g = waxman_graph(20, seed=4)
        members = sample_members(g, 1, seed=4)
        core = sorted(g.nodes)[-1]
        tree = shared_tree(g, core, members)
        path = g.shortest_path(members[0], core)
        assert len(tree.edges) == len(path) - 1

    def test_member_at_core_contributes_nothing(self):
        g = waxman_graph(20, seed=5)
        core = g.nodes[0]
        tree = shared_tree(g, core, [core])
        assert tree.edges == set()


class TestKMBSteiner:
    def test_spans_terminals(self):
        g = waxman_graph(30, seed=6)
        terminals = sample_members(g, 6, seed=6)
        tree = kmb_steiner_tree(g, terminals)
        assert tree.spans(terminals)
        assert tree.is_loop_free()

    def test_no_nonterminal_leaves(self):
        g = waxman_graph(30, seed=7)
        terminals = sample_members(g, 5, seed=7)
        tree = kmb_steiner_tree(g, terminals)
        degree = {}
        for u, v in tree.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for node, d in degree.items():
            if d == 1:
                assert node in terminals

    def test_cost_at_most_spt_cost(self):
        """KMB is a 2-approximation; in practice it should not exceed
        the source-rooted SPT's cost on the same terminal set."""
        g = waxman_graph(40, seed=8)
        terminals = sample_members(g, 8, seed=8)
        kmb = kmb_steiner_tree(g, terminals)
        spt = shortest_path_tree(g, terminals[0], terminals)
        assert kmb.cost() <= spt.cost() + 1e-9

    def test_single_terminal(self):
        g = waxman_graph(10, seed=9)
        tree = kmb_steiner_tree(g, [g.nodes[0]])
        assert tree.edges == set()

    def test_empty_terminals_rejected(self):
        with pytest.raises(ValueError):
            kmb_steiner_tree(waxman_graph(10, seed=0), [])

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_kmb_invariants_property(self, seed):
        g = waxman_graph(20, seed=seed)
        terminals = sample_members(g, 5, seed=seed)
        tree = kmb_steiner_tree(g, terminals)
        assert tree.spans(terminals)
        assert tree.is_loop_free()


class TestSourceTreeHelpers:
    def test_one_tree_per_sender(self):
        g = waxman_graph(25, seed=10)
        members = sample_members(g, 5, seed=10)
        trees = source_trees_for(g, members[:2], members)
        assert set(trees) == set(members[:2])


class TestDVMRP:
    def test_members_receive_flooded_data(self):
        net = waxman_network(12, seed=20)
        members = ["H_N3", "H_N8"]
        domain, group = build_dvmrp_group(net, members, prune_lifetime=60.0)
        uid = send_data(net, "H_N1", group, count=1)[0]
        for member in members:
            assert sum(1 for d in net.host(member).delivered if d.uid == uid) >= 1

    def test_every_router_holds_state_after_flood(self):
        """The paper's complaint: flood-and-prune leaves (S, G) state
        in every router, members or not."""
        net = waxman_network(12, seed=21)
        domain, group = build_dvmrp_group(net, ["H_N2"], prune_lifetime=60.0)
        send_data(net, "H_N5", group, count=1)
        assert domain.routers_with_state() == len(net.routers)

    def test_prunes_reduce_forwarding(self):
        net = waxman_network(16, seed=22)
        domain, group = build_dvmrp_group(net, ["H_N3"], prune_lifetime=300.0)
        send_data(net, "H_N5", group, count=1)
        first = domain.data_forwards()
        net.run(until=net.scheduler.now + 10.0)
        send_data(net, "H_N5", group, count=1)
        second = domain.data_forwards() - first
        assert second <= first

    def test_prunes_expire_and_reflood(self):
        net = waxman_network(12, seed=23)
        domain, group = build_dvmrp_group(net, ["H_N3"], prune_lifetime=20.0)
        send_data(net, "H_N5", group, count=1)
        pruned = sum(p.stats.prunes_sent for p in domain.protocols.values())
        assert pruned > 0
        net.run(until=net.scheduler.now + 30.0)  # beyond the lifetime
        baseline = domain.data_forwards()
        send_data(net, "H_N5", group, count=1)
        reflooded = domain.data_forwards() - baseline
        assert reflooded > 0

    def test_census_counts_only_unexpired_prunes(self):
        """An expired prune prunes nothing: the census leaves it out,
        although the entry holds it until its next read."""
        net = build_figure1()
        domain, group = build_dvmrp_group(net, ["A"], prune_lifetime=5.0)
        send_data(net, "B", group, count=1)

        def held():
            return sum(
                len(table)
                for protocol in domain.protocols.values()
                for entry in protocol.entries.values()
                for table in entry.prunes.values()
            )

        entries = sum(len(protocol.entries) for protocol in domain.protocols.values())
        assert (entries, held()) == (12, 5)
        assert domain.total_state() == entries + 5
        net.run(until=net.scheduler.now + 30.0)  # no data: nothing reads them
        assert held() == 5
        assert domain.total_state() == entries

    def test_graft_restores_delivery_after_prune(self):
        net = waxman_network(12, seed=24)
        domain, group = build_dvmrp_group(net, ["H_N3"], prune_lifetime=600.0)
        send_data(net, "H_N5", group, count=1)
        # A new member joins on a previously pruned branch.
        domain.join_host("H_N9", group)
        net.run(until=net.scheduler.now + 5.0)
        uid = send_data(net, "H_N5", group, count=1)[0]
        assert sum(1 for d in net.host("H_N9").delivered if d.uid == uid) >= 1

    def test_rpf_drops_counted(self):
        net = waxman_network(16, seed=25)
        domain, group = build_dvmrp_group(net, ["H_N3"], prune_lifetime=600.0)
        send_data(net, "H_N5", group, count=3)
        drops = sum(p.stats.rpf_drops for p in domain.protocols.values())
        # Redundant topologies always produce some non-RPF arrivals.
        assert drops >= 0  # counter exists and never goes negative


#: engine -> (domain class, beacon interval).
LIFECYCLE_ENGINES = {
    "dvmrp": (DVMRPDomain, PROBE_INTERVAL),
    "hpimdm": (HPIMDMDomain, HELLO_INTERVAL),
}


@pytest.mark.parametrize("engine", sorted(LIFECYCLE_ENGINES))
class TestDenseModeLifecycle:
    """Two routers on one point-to-point link beacon at start and then
    every interval: DVMRP probes every 10 s, HPIM-DM HELLOs every 3 s."""

    def _beacons(self, engine, starts):
        net = realise(line_graph(2), with_hosts=False)
        domain = LIFECYCLE_ENGINES[engine][0](net)
        protocols = list(domain.protocols.values())
        for protocol in protocols:
            for _ in range(starts):
                protocol.start()
        net.run(until=95.0)
        return sum(protocol.stats.beacons_sent for protocol in protocols)

    def test_a_second_start_does_nothing(self, engine):
        interval = LIFECYCLE_ENGINES[engine][1]
        once = 2 * (int(95.0 // interval) + 1)  # two routers, t = 0 to 95
        assert self._beacons(engine, starts=1) == self._beacons(engine, starts=2) == once

    def test_close_ends_the_world(self, engine):
        """No engine has a ``stop``: a world ends through
        ``Network.close()``.  Its scheduler refuses to run on, and an
        engine kept past its network fails loudly on a restart instead
        of beaconing again."""
        net = realise(line_graph(2), with_hosts=False)
        domain = LIFECYCLE_ENGINES[engine][0](net)
        protocols = list(domain.protocols.values())
        for protocol in protocols:
            protocol.start()
        net.run(until=95.0)
        interval = LIFECYCLE_ENGINES[engine][1]
        assert sum(protocol.stats.beacons_sent for protocol in protocols) == 2 * (
            int(95.0 // interval) + 1
        )
        net.close()
        with pytest.raises(SchedulerError, match="closed"):
            net.run(until=200.0)
        with pytest.raises(AttributeError):
            protocols[0].start()
