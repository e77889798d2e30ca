"""Tests for core placement strategies."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.baselines.trees import shared_tree
from repro.core.placement import (
    best_of_candidates,
    locality_cores,
    max_degree_core,
    member_centroid_core,
    random_core,
    rank_cores,
    topology_center_core,
)
from repro.metrics.delay import summarise_stretch
from repro.topology.generators import line_graph, star_graph, waxman_graph


def members_of(graph, count, seed=0):
    rng = random.Random(seed)
    return sorted(rng.sample(graph.nodes, count))


def _spy_on_scores(graph):
    """The routers ``best_of_candidates`` scores on ``graph``, in order:
    it scores a candidate by the graph's ``total_distance``."""
    scored = []
    total_distance = graph.total_distance

    def spy(node, targets, weight="cost"):
        scored.append(node)
        return total_distance(node, targets, weight=weight)

    graph.total_distance = spy
    return scored


class TestStrategies:
    def test_random_core_is_a_node(self):
        g = waxman_graph(20, seed=0)
        assert random_core(g, random.Random(1)) in g.nodes

    def test_random_core_deterministic_per_seed(self):
        g = waxman_graph(20, seed=0)
        assert random_core(g, random.Random(5)) == random_core(g, random.Random(5))

    def test_max_degree_on_star(self):
        assert max_degree_core(star_graph(8)) == "N0"

    def test_center_on_line(self):
        g = line_graph(9)
        assert topology_center_core(g) == "N4"

    def test_member_centroid_prefers_member_region(self):
        g = line_graph(11)
        # Members clustered at one end; the centroid must be near them.
        core = member_centroid_core(g, ["N0", "N1", "N2"])
        assert core in ("N0", "N1", "N2")

    def test_member_centroid_requires_members(self):
        with pytest.raises(ValueError):
            member_centroid_core(line_graph(5), [])

    def test_best_of_candidates_beats_single_random_on_average(self):
        g = waxman_graph(40, seed=3)
        members = members_of(g, 8, seed=3)

        def mean_total(core):
            return g.total_distance(core, members, weight="delay")

        rng = random.Random(0)
        best_scores = [
            mean_total(best_of_candidates(g, members, random.Random(s), k=5))
            for s in range(20)
        ]
        random_scores = [
            mean_total(random_core(g, random.Random(s))) for s in range(20)
        ]
        assert sum(best_scores) / 20 <= sum(random_scores) / 20

    def test_best_of_candidates_k_validated(self):
        g = waxman_graph(10, seed=0)
        with pytest.raises(ValueError):
            best_of_candidates(g, g.nodes[:2], random.Random(0), k=0)

    def test_best_of_candidates_scores_total_delay(self):
        # With every router a candidate, the best is the member centroid.
        g = waxman_graph(20, seed=3)
        members = members_of(g, 5, seed=3)
        core = best_of_candidates(g, members, random.Random(0), k=len(g.nodes))
        assert core == member_centroid_core(g, members)

    def test_rank_cores_ordered_and_distinct(self):
        g = waxman_graph(30, seed=4)
        members = members_of(g, 6, seed=4)
        cores = rank_cores(g, members, count=3)
        assert len(cores) == 3
        assert len(set(cores)) == 3
        totals = [g.total_distance(c, members, weight="delay") for c in cores]
        assert totals == sorted(totals)

    def test_rank_cores_count_exceeding_nodes(self):
        g = line_graph(5)
        cores = rank_cores(g, ["N0", "N4"], count=50)
        assert sorted(cores) == sorted(g.nodes)
        assert len(set(cores)) == len(cores)

    def test_best_of_candidates_evaluates_distinct_candidates(self):
        # Regression: choice-with-replacement silently shrank the pool;
        # k=3 must score 3 *distinct* routers.
        g = waxman_graph(20, seed=7)
        members = members_of(g, 4, seed=7)
        for seed in range(10):
            scored = _spy_on_scores(g)
            best_of_candidates(g, members, random.Random(seed), k=3)
            assert len(set(scored)) == 3

    def test_best_of_candidates_k_beyond_pool_scores_everyone(self):
        g = line_graph(4)
        scored = _spy_on_scores(g)
        best_of_candidates(g, ["N0"], random.Random(0), k=99)
        assert sorted(set(scored)) == sorted(g.nodes)

    def test_member_centroid_tie_break_deterministic(self):
        # N1 and N2 tie on total delay to {N1, N2}; the lexicographic
        # tie-break must pick N1 whatever order the members come in.
        g = line_graph(4)
        assert member_centroid_core(g, ["N1", "N2"]) == "N1"
        assert member_centroid_core(g, ["N2", "N1"]) == "N1"


class TestLocalityCores:
    def test_primary_is_global_centroid_for_single_cluster(self):
        g = waxman_graph(25, seed=9)
        members = members_of(g, 5, seed=9)
        assert locality_cores(g, members, count=1) == [
            member_centroid_core(g, members)
        ]

    def test_distinct_cores_ranked_by_total_distance(self):
        g = waxman_graph(30, seed=11)
        members = members_of(g, 8, seed=11)
        cores = locality_cores(g, members, count=3)
        assert len(cores) == len(set(cores)) == 3
        assert all(c in g.nodes for c in cores)
        totals = [g.total_distance(c, members, weight="delay") for c in cores]
        assert totals[0] == min(totals)

    def test_pads_when_clustering_collapses(self):
        # One member can seed only one cluster; padding must still
        # deliver distinct cores up to count.
        g = line_graph(6)
        cores = locality_cores(g, ["N2"], count=3)
        assert len(cores) == len(set(cores)) == 3

    def test_deterministic(self):
        g = waxman_graph(30, seed=13)
        members = members_of(g, 7, seed=13)
        assert locality_cores(g, members, count=3) == locality_cores(
            g, members, count=3
        )

    def test_rejects_bad_inputs(self):
        g = line_graph(4)
        with pytest.raises(ValueError):
            locality_cores(g, ["N0"], count=0)
        with pytest.raises(ValueError):
            locality_cores(g, [], count=2)
        with pytest.raises(KeyError):
            locality_cores(g, ["N9"], count=2)


class TestStrategyProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50),
        size=st.integers(min_value=4, max_value=24),
        member_count=st.integers(min_value=1, max_value=6),
        rng_seed=st.integers(min_value=0, max_value=10),
    )
    def test_every_strategy_returns_a_node_of_the_graph(
        self, seed, size, member_count, rng_seed
    ):
        g = waxman_graph(size, seed=seed)
        members = members_of(g, min(member_count, size), seed=seed)
        rng = random.Random(rng_seed)
        assert random_core(g, rng) in g.nodes
        assert max_degree_core(g) in g.nodes
        assert topology_center_core(g) in g.nodes
        assert member_centroid_core(g, members) in g.nodes
        assert best_of_candidates(g, members, rng, k=3) in g.nodes
        for core in rank_cores(g, members, count=2):
            assert core in g.nodes
        for core in locality_cores(g, members, count=2):
            assert core in g.nodes


class TestPlacementQuality:
    def test_good_placement_gives_lower_stretch_than_bad(self):
        """The E4 claim: placement drives shared-tree delay quality.

        Compare the member centroid against the worst random corner
        over several topologies; the centroid must win on average.
        """
        good_wins = 0
        trials = 5
        for seed in range(trials):
            g = waxman_graph(40, seed=seed)
            members = members_of(g, 8, seed=seed)
            good = member_centroid_core(g, members)
            # adversarial: the node with the worst total distance
            bad = max(
                g.nodes,
                key=lambda n: g.total_distance(n, members, weight="delay"),
            )
            good_tree = shared_tree(g, good, members, weight="delay")
            bad_tree = shared_tree(g, bad, members, weight="delay")
            good_mean, _ = summarise_stretch(g, good_tree, members, members)
            bad_mean, _ = summarise_stretch(g, bad_tree, members, members)
            if good_mean <= bad_mean:
                good_wins += 1
        assert good_wins >= trials - 1
