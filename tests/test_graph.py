"""Tests for the abstract graph and tree types, with hypothesis checks."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.graph import Graph, Tree
from repro.topology.generators import waxman_graph


def diamond():
    """a-b, a-c, b-d, c-d with unequal costs."""
    g = Graph()
    g.add_edge("a", "b", cost=1, delay=1)
    g.add_edge("a", "c", cost=2, delay=2)
    g.add_edge("b", "d", cost=1, delay=1)
    g.add_edge("c", "d", cost=2, delay=2)
    return g


class TestGraph:
    def test_nodes_and_edges(self):
        g = diamond()
        assert g.nodes == ["a", "b", "c", "d"]
        assert len(g.edges) == 4
        assert g.has_edge("a", "b")
        assert not g.has_edge("a", "d")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph().add_edge("x", "x")

    def test_dijkstra_distances(self):
        g = diamond()
        dist, _ = g.dijkstra("a")
        assert dist == {"a": 0, "b": 1, "c": 2, "d": 2}

    def test_shortest_path(self):
        g = diamond()
        assert g.shortest_path("a", "d") == ["a", "b", "d"]

    def test_shortest_path_unreachable(self):
        g = diamond()
        g.add_node("island")
        assert g.shortest_path("a", "island") == []
        assert "island" not in g.dijkstra("a")[0]

    def test_weight_selector(self):
        g = Graph()
        g.add_edge("a", "b", cost=1, delay=100)
        g.add_edge("a", "c", cost=100, delay=1)
        g.add_edge("c", "b", cost=100, delay=1)
        assert g.shortest_path("a", "b", weight="cost") == ["a", "b"]
        assert g.shortest_path("a", "b", weight="delay") == ["a", "c", "b"]

    def test_connectivity(self):
        g = diamond()
        assert g.is_connected()
        g.add_node("island")
        assert not g.is_connected()

    def test_center_of_path_graph(self):
        g = Graph()
        for i in range(4):
            g.add_edge(f"n{i}", f"n{i+1}")
        assert g.center() == "n2"

    def test_eccentricity(self):
        g = Graph()
        for i in range(4):
            g.add_edge(f"n{i}", f"n{i+1}")
        assert g.eccentricity("n0") == 4
        assert g.eccentricity("n2") == 2

    def test_total_distance(self):
        g = diamond()
        assert g.total_distance("a", ["b", "d"]) == 3

    def test_degree(self):
        g = diamond()
        assert g.degree("a") == 2
        assert [n for n in g.nodes if g.has_edge("a", n)] == ["b", "c"]


class TestTree:
    def test_add_path_builds_edges(self):
        g = diamond()
        t = Tree(graph=g, root="a")
        t.add_path(["d", "b", "a"])
        assert t.edges == {("b", "d"), ("a", "b")}
        assert t.nodes == {"a", "b", "d"}

    def test_cost(self):
        g = diamond()
        t = Tree(graph=g, root="a")
        t.add_path(["d", "b", "a"])
        assert t.cost() == 2

    def test_cost_rejects_foreign_edges(self):
        g = diamond()
        t = Tree(graph=g, root="a")
        t.edges.add(("a", "d"))
        with pytest.raises(ValueError):
            t.cost()

    def test_delay_from(self):
        g = diamond()
        t = Tree(graph=g, root="a")
        t.add_path(["d", "b", "a"])
        t.add_path(["c", "a"])
        delays = t.delay_from("a")
        assert delays["d"] == 2
        assert delays["c"] == 2

    def test_loop_free_detection(self):
        g = diamond()
        t = Tree(graph=g, root="a")
        t.add_path(["d", "b", "a"])
        assert t.is_loop_free()
        t.edges.add(("a", "c"))
        t.edges.add(("c", "d"))
        assert not t.is_loop_free()

    def test_spans(self):
        g = diamond()
        t = Tree(graph=g, root="a")
        t.add_path(["d", "b", "a"])
        assert t.spans(["a", "d"])
        assert not t.spans(["c"])


class TestGraphProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_waxman_graphs_are_connected(self, seed):
        g = waxman_graph(20, seed=seed)
        assert g.is_connected()

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_dijkstra_satisfies_triangle_inequality(self, seed):
        g = waxman_graph(15, seed=seed)
        rng = random.Random(seed)
        a, b, c = rng.sample(g.nodes, 3)
        dist = {node: g.dijkstra(node)[0] for node in (a, b)}
        assert dist[a][c] <= dist[a][b] + dist[b][c] + 1e-9

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_shortest_path_endpoints_and_adjacency(self, seed):
        g = waxman_graph(15, seed=seed)
        rng = random.Random(seed)
        a, b = rng.sample(g.nodes, 2)
        path = g.shortest_path(a, b)
        assert path[0] == a and path[-1] == b
        for u, v in zip(path, path[1:]):
            assert g.has_edge(u, v)


def _rebuilt(graph):
    """The same graph, adjacency order included (ties break by it),
    having answered nothing."""
    fresh = copy.deepcopy(graph)
    fresh._paths.clear()
    return fresh


class TestShortestPathMemo:
    """``Graph.dijkstra`` remembers its last few answers (a probe asks
    the same two sources every sample); the memo must be invisible."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_equals_a_fresh_computation_after_construction(self, seed):
        g = waxman_graph(12, seed=seed)
        rng = random.Random(seed)
        source = rng.choice(g.nodes)
        for weight in ("cost", "delay"):
            g.dijkstra(source, weight=weight)  # warm
        a, b = rng.sample(g.nodes, 2)
        g.add_edge(a, b, cost=0.25, delay=0.125)  # a shortcut (or a cheaper edge)
        g.add_node("late")
        g.add_edge("late", source, cost=2.0, delay=3.0)
        for weight in ("cost", "delay"):
            assert g.dijkstra(source, weight=weight) == _rebuilt(g).dijkstra(
                source, weight=weight
            )
            assert "late" in g.dijkstra(source, weight=weight)[0]

    def test_a_new_isolated_node_is_noticed(self):
        g = diamond()
        assert g.is_connected()
        g.add_node("island")
        assert not g.is_connected()
        assert g.eccentricity("a") == float("inf")

    def test_callers_cannot_corrupt_it(self):
        g = diamond()
        first = g.dijkstra("a")
        dist, prev = g.dijkstra("a")
        dist.clear()
        prev["d"] = "nowhere"
        assert g.dijkstra("a") == first
        assert g.shortest_path("a", "d") == _rebuilt(g).shortest_path("a", "d")

    def test_a_sweep_over_every_source_keeps_a_few_maps(self):
        g = waxman_graph(40, seed=3)
        fresh = _rebuilt(g)
        for weight in ("cost", "delay"):
            assert g.center(weight) == fresh.center(weight)
        assert 0 < len(g._paths) <= 8
        for node in g.nodes:
            assert g.dijkstra(node) == _rebuilt(g).dijkstra(node)
