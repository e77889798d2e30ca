"""Tests for the evaluation metric modules (E1-E5 inputs)."""

import random

import pytest

from repro.baselines.trees import shared_tree, shortest_path_tree, source_trees_for
from repro.metrics.concentration import (
    link_loads,
    load_distribution,
    traffic_concentration,
)
from repro.metrics.delay import delay_stretch, summarise_stretch, tree_delays
from repro.metrics.state import StateCensus
from repro.metrics.tree import forest_cost
from repro.topology.generators import waxman_graph
from repro.topology.graph import Graph


def setup_graph(seed=0, n=30, members=6):
    g = waxman_graph(n, seed=seed)
    rng = random.Random(seed)
    ms = sorted(rng.sample(g.nodes, members))
    return g, ms


class TestTreeCost:
    def test_cost_of_line_tree(self):
        g = Graph()
        g.add_edge("a", "b", cost=2)
        g.add_edge("b", "c", cost=3)
        tree = shortest_path_tree(g, "a", ["c"])
        assert forest_cost([tree]) == 5

    def test_forest_cost_counts_shared_edges_once(self):
        g, members = setup_graph()
        trees = source_trees_for(g, members[:3], members)
        union = forest_cost(trees.values())
        total = sum(
            g.edge_between(u, v).cost for tree in trees.values() for u, v in tree.edges
        )
        assert union <= total


class TestDelay:
    def test_spt_stretch_is_one(self):
        """Per-source trees deliver along shortest paths: stretch == 1."""
        g, members = setup_graph(seed=7)
        sender = members[0]
        tree = shortest_path_tree(g, sender, members, weight="delay")
        stretches = delay_stretch(g, tree, sender, members)
        for receiver, stretch in stretches.items():
            assert stretch == pytest.approx(1.0)

    def test_shared_tree_stretch_at_least_one(self):
        g, members = setup_graph(seed=8)
        core = g.center(weight="delay")
        tree = shared_tree(g, core, members, weight="delay")
        mean_stretch, max_stretch = summarise_stretch(g, tree, members, members)
        assert mean_stretch >= 1.0 - 1e-9
        assert max_stretch >= mean_stretch

    def test_tree_delays_exclude_sender(self):
        g, members = setup_graph(seed=9)
        tree = shared_tree(g, members[0], members, weight="delay")
        delays = tree_delays(tree, members[0], members)
        assert members[0] not in delays
        assert set(delays) == set(members[1:])


class TestConcentration:
    def test_shared_tree_concentrates_multi_sender_load(self):
        g, members = setup_graph(seed=11, n=40, members=8)
        core = g.center(weight="delay")
        shared = shared_tree(g, core, members)
        shared_map = {m: shared for m in members}
        source_map = source_trees_for(g, members, members)
        shared_max, _ = traffic_concentration(shared_map, members)
        source_max, _ = traffic_concentration(source_map, members)
        assert shared_max >= source_max

    def test_single_sender_loads_are_one(self):
        g, members = setup_graph(seed=12)
        tree = shared_tree(g, members[0], members)
        loads = link_loads({members[0]: tree}, members)
        assert loads and all(v == 1 for v in loads.values())

    def test_flows_cross_only_needed_edges(self):
        """A sender's flow only touches the subtree spanning it and the
        receivers, not every tree edge."""
        g = Graph()
        # star: core c with arms a, b, d
        for leaf in "abd":
            g.add_edge("c", leaf)
        tree = shared_tree(g, "c", ["a", "b", "d"])
        loads = link_loads({"a": tree}, ["b"])
        assert ("a", "c") in loads and ("b", "c") in loads
        assert ("c", "d") not in loads

    def test_load_distribution_sorted(self):
        g, members = setup_graph(seed=13)
        source_map = source_trees_for(g, members[:3], members)
        dist = load_distribution(source_map, members)
        assert dist == sorted(dist, reverse=True)

    def test_empty_inputs(self):
        assert traffic_concentration({}, []) == (0, 0.0)


class TestStateCensus:
    def test_aggregates(self):
        census = StateCensus(per_router={"a": 3, "b": 0, "c": 5})
        assert census.total == 8
        assert census.max_router == 5
        assert census.routers_with_state == 2

    def test_empty(self):
        census = StateCensus(per_router={})
        assert census.total == 0
        assert census.max_router == 0
