"""E4 — delay stretch vs core placement.

Reproduces the paper's delay evaluation: sender-to-receiver delay over
the shared tree, relative to the unicast shortest path (stretch 1.0 =
optimal, what per-source SPTs achieve).  Swept over the placement
strategies DESIGN.md calls out for ablation.

Expectation: random cores cost noticeably more delay (mean stretch
~1.3-2x); centroid/centre placement pulls the mean close to ~1.1-1.4x;
SPT baseline is exactly 1.0.
"""

import random
from statistics import mean


from benchmarks.conftest import publish
from repro.baselines.trees import shared_tree
from repro.core.placement import (
    best_of_candidates,
    max_degree_core,
    member_centroid_core,
    random_core,
    topology_center_core,
)
from repro.harness.experiment import Experiment
from repro.metrics.delay import summarise_stretch
from repro.topology.generators import waxman_graph

TOPOLOGY_SIZE = 100
GROUP_SIZE = 10
SEEDS = range(10)

STRATEGIES = [
    ("random", lambda g, members, rng: random_core(g, rng)),
    ("max-degree", lambda g, members, rng: max_degree_core(g)),
    ("topo centre", lambda g, members, rng: topology_center_core(g)),
    ("best-of-3", lambda g, members, rng: best_of_candidates(g, members, rng, k=3)),
    ("member centroid", lambda g, members, rng: member_centroid_core(g, members)),
]


def stretch_for(strategy) -> tuple:
    means, maxes = [], []
    for seed in SEEDS:
        graph = waxman_graph(TOPOLOGY_SIZE, seed=seed)
        rng = random.Random(seed)
        members = sorted(rng.sample(graph.nodes, GROUP_SIZE))
        core = strategy(graph, members, rng)
        tree = shared_tree(graph, core, members, weight="delay")
        mean_stretch, max_stretch = summarise_stretch(graph, tree, members, members)
        means.append(mean_stretch)
        maxes.append(max_stretch)
    return mean(means), mean(maxes)


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E4",
        title="Delay stretch vs core placement (Waxman n=100, |G|=10)",
        paper_expectation=(
            "SPT stretch is 1.0 by construction; shared-tree stretch "
            "depends strongly on placement: random worst, centroid/"
            "centre approach ~1.1-1.4 mean"
        ),
    )
    rows = [("per-source SPT (baseline)", 1.0, 1.0)]
    for name, strategy in STRATEGIES:
        mean_stretch, max_stretch = stretch_for(strategy)
        rows.append((name, round(mean_stretch, 3), round(max_stretch, 3)))
    exp.run_sweep(["placement", "mean stretch", "mean max-stretch"], rows)
    return exp


def test_delay_stretch(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E4_delay_stretch", exp.report())
    rows = {row[0]: row for row in exp.result.rows}
    # Every shared-tree stretch >= 1 (SPT is optimal).
    for name, row in rows.items():
        assert row[1] >= 1.0 - 1e-9
    # Member-aware placement beats random placement.
    assert rows["member centroid"][1] <= rows["random"][1]
    # best-of-3 sits between random and centroid.
    assert rows["best-of-3"][1] <= rows["random"][1] + 1e-9
    # Informed placement keeps mean stretch modest.
    assert rows["member centroid"][1] < 1.5
