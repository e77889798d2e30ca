"""E5 — traffic concentration under multiple senders.

Reproduces the paper's acknowledged shared-tree drawback: with S
simultaneous senders, shared-tree links near the core carry all S
flows, while per-source trees spread load.  The series reports the
busiest-link load and the load distribution head.

Expectation: max link load == S for the shared tree (all flows
superimpose); per-source trees stay well below S on sparse topologies,
with the gap growing in S.
"""

import random
from statistics import mean


from benchmarks.conftest import publish
from repro.baselines.trees import shared_tree, source_trees_for
from repro.core.placement import member_centroid_core
from repro.harness.experiment import Experiment
from repro.metrics.concentration import load_distribution, traffic_concentration
from repro.topology.generators import waxman_graph

TOPOLOGY_SIZE = 100
GROUP_SIZE = 16
SEEDS = range(8)


def concentration_for(sender_count: int) -> tuple:
    shared_maxes, source_maxes, shared_means, source_means = [], [], [], []
    for seed in SEEDS:
        graph = waxman_graph(TOPOLOGY_SIZE, seed=seed)
        rng = random.Random(seed * 31 + sender_count)
        members = sorted(rng.sample(graph.nodes, GROUP_SIZE))
        senders = members[:sender_count]
        core = member_centroid_core(graph, members)
        shared = shared_tree(graph, core, members)
        shared_map = {s: shared for s in senders}
        source_map = source_trees_for(graph, senders, members)
        smax, smean = traffic_concentration(shared_map, members)
        pmax, pmean = traffic_concentration(source_map, members)
        shared_maxes.append(smax)
        source_maxes.append(pmax)
        shared_means.append(smean)
        source_means.append(pmean)
    return (
        mean(shared_maxes),
        mean(shared_means),
        mean(source_maxes),
        mean(source_means),
    )


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E5",
        title="Traffic concentration vs sender count (Waxman n=100, |G|=16)",
        paper_expectation=(
            "shared tree: busiest link carries ~all S flows; per-source "
            "trees spread load so their max grows sublinearly in S"
        ),
    )
    rows = []
    for senders in (2, 4, 8, 16):
        smax, smean, pmax, pmean = concentration_for(senders)
        rows.append(
            (
                senders,
                round(smax, 2),
                round(smean, 2),
                round(pmax, 2),
                round(pmean, 2),
            )
        )
    exp.run_sweep(
        [
            "senders",
            "shared max load",
            "shared mean load",
            "per-src max load",
            "per-src mean load",
        ],
        rows,
    )
    return exp


def run_distribution() -> str:
    """The figure's companion series: sorted per-link loads, S=8."""
    graph = waxman_graph(TOPOLOGY_SIZE, seed=1)
    rng = random.Random(99)
    members = sorted(rng.sample(graph.nodes, GROUP_SIZE))
    senders = members[:8]
    core = member_centroid_core(graph, members)
    shared = shared_tree(graph, core, members)
    shared_dist = load_distribution({s: shared for s in senders}, members)[:10]
    source_dist = load_distribution(
        source_trees_for(graph, senders, members), members
    )[:10]
    from repro.harness.formatting import format_table

    rows = [
        (rank + 1, shared_dist[rank] if rank < len(shared_dist) else 0,
         source_dist[rank] if rank < len(source_dist) else 0)
        for rank in range(10)
    ]
    return format_table(
        ["link rank", "shared-tree load", "per-source load"],
        rows,
        title="top-10 loaded links, 8 senders (one seed)",
    )


def test_traffic_concentration(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    text = exp.report() + "\n\n" + run_distribution()
    publish("E5_traffic_concentration", text)
    for row in exp.result.rows:
        senders, smax, smean, pmax, pmean = row
        # All S flows superimpose near the core of the shared tree.
        assert smax >= senders - 1e-9
        # Per-source trees never concentrate harder than the shared tree.
        assert pmax <= smax + 1e-9
    # The gap grows with S.
    first, last = exp.result.rows[0], exp.result.rows[-1]
    assert (last[1] - last[3]) >= (first[1] - first[3])
