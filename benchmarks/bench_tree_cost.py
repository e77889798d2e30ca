"""E3 — total tree cost vs group size (shared vs source-based trees).

Reproduces the paper's tree-cost comparison: the cost (total link
metric) of one CBT shared tree against (a) a single source's
shortest-path tree, (b) the union of all senders' SPTs, and (c) the
KMB Steiner heuristic as the quality yardstick.

Expectation: the shared tree's cost is within a small constant of a
single SPT (literature: ~1.1-1.4x with decent core placement, group
sizes 5-50), far below the union of per-source trees, and close to the
Steiner heuristic.
"""

import random
from statistics import mean


from benchmarks.conftest import publish
from repro.baselines.trees import (
    kmb_steiner_tree,
    shared_tree,
    shortest_path_tree,
    source_trees_for,
)
from repro.core.placement import member_centroid_core
from repro.harness.experiment import Experiment
from repro.metrics.tree import forest_cost
from repro.topology.generators import waxman_graph

TOPOLOGY_SIZE = 100
SEEDS = range(12)


def costs_for(group_size: int) -> tuple:
    shared_costs, spt_costs, union_costs, steiner_costs = [], [], [], []
    for seed in SEEDS:
        graph = waxman_graph(TOPOLOGY_SIZE, seed=seed)
        rng = random.Random(seed * 1000 + group_size)
        members = sorted(rng.sample(graph.nodes, group_size))
        core = member_centroid_core(graph, members)
        shared = shared_tree(graph, core, members)
        spt = shortest_path_tree(graph, members[0], members)
        union = forest_cost(source_trees_for(graph, members, members).values())
        steiner = kmb_steiner_tree(graph, members)
        shared_costs.append(shared.cost())
        spt_costs.append(spt.cost())
        union_costs.append(union)
        steiner_costs.append(steiner.cost())
    return (
        mean(shared_costs),
        mean(spt_costs),
        mean(union_costs),
        mean(steiner_costs),
    )


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E3",
        title="Tree cost vs group size (Waxman n=100, 12 seeds)",
        paper_expectation=(
            "shared-tree cost within ~1.1-1.5x of a single SPT and "
            "close to the Steiner heuristic; union of per-source trees "
            "costs several times more"
        ),
    )
    rows = []
    for group_size in (5, 10, 20, 40):
        shared, spt, union, steiner = costs_for(group_size)
        rows.append(
            (
                group_size,
                round(shared, 1),
                round(spt, 1),
                round(union, 1),
                round(steiner, 1),
                round(shared / spt, 3),
                round(shared / steiner, 3),
            )
        )
    exp.run_sweep(
        [
            "group size",
            "shared cost",
            "1-src SPT cost",
            "union SPTs cost",
            "steiner cost",
            "shared/SPT",
            "shared/steiner",
        ],
        rows,
    )
    return exp


def test_tree_cost(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E3_tree_cost", exp.report())
    for row in exp.result.rows:
        group, shared, spt, union, steiner, vs_spt, vs_steiner = row
        # Shared tree is cost-competitive with a single SPT...
        assert vs_spt < 1.6
        # ...close to the Steiner yardstick (KMB itself is a 2-approx)...
        assert vs_steiner < 1.6
        # ...and far cheaper than the union of per-source trees.
        assert union > 1.5 * shared
