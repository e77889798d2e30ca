"""E17 (extension) — CBT vs PIM-SM: the shared-tree siblings compared.

The spec cites PIM Sparse Mode [10] as the contemporaneous shared-tree
design; the mid-90s debate was exactly this trade: PIM's SPT
switchover buys unicast-optimal delay by re-introducing the
O(senders x groups) state CBT eliminates, and PIM's unidirectional RP
tree funnels pre-switchover traffic through the RP while CBT's
bidirectional tree lets packets enter anywhere.

Sweeps sender count on a fixed group and reports state and stretch for
CBT, PIM-SM without switchover, and PIM-SM with switchover.
"""

import random
from statistics import mean

import pytest

from benchmarks.conftest import publish
from repro.baselines.pimsm import cbt_equivalent_state, pim_sm_model
from repro.baselines.trees import shared_tree
from repro.harness.experiment import Experiment
from repro.metrics.delay import summarise_stretch
from repro.topology.generators import waxman_graph

TOPOLOGY_SIZE = 100
GROUP_SIZE = 12
SEEDS = range(8)


def compare(sender_count: int) -> tuple:
    cbt_states, pim_states, pim_sw_states = [], [], []
    cbt_stretches, pim_stretches, pim_sw_stretches = [], [], []
    for seed in SEEDS:
        graph = waxman_graph(TOPOLOGY_SIZE, seed=seed)
        rng = random.Random(seed)  # same group at every sender count
        members = sorted(rng.sample(graph.nodes, GROUP_SIZE))
        senders = members[:sender_count]
        rp = members[0]

        cbt_state = cbt_equivalent_state(graph, rp, members)
        cbt_states.append(sum(cbt_state.values()))
        cbt_tree = shared_tree(graph, rp, members, weight="delay")
        cbt_mean, _ = summarise_stretch(graph, cbt_tree, senders, members)
        cbt_stretches.append(cbt_mean)

        pim = pim_sm_model(graph, rp, members, senders, switchover=False)
        pim_states.append(pim.total_state())
        pim_stretches.append(pim.mean_stretch())

        pim_sw = pim_sm_model(graph, rp, members, senders, switchover=True)
        pim_sw_states.append(pim_sw.total_state())
        pim_sw_stretches.append(pim_sw.mean_stretch())
    return (
        sender_count,
        round(mean(cbt_states), 1),
        round(mean(cbt_stretches), 3),
        round(mean(pim_states), 1),
        round(mean(pim_stretches), 3),
        round(mean(pim_sw_states), 1),
        round(mean(pim_sw_stretches), 3),
    )


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E17",
        title=(
            "CBT vs PIM-SM (RP tree / + SPT switchover), "
            f"Waxman n={TOPOLOGY_SIZE}, |G|={GROUP_SIZE}"
        ),
        paper_expectation=(
            "CBT: sender-independent state, moderate stretch. PIM "
            "no-switch: similar state but worse stretch (RP detour, "
            "unidirectional). PIM + switchover: stretch 1.0 at the "
            "price of state growing with senders"
        ),
    )
    rows = [compare(s) for s in (1, 2, 4, 8)]
    exp.run_sweep(
        [
            "senders",
            "cbt state",
            "cbt stretch",
            "pim state",
            "pim stretch",
            "pim+spt state",
            "pim+spt stretch",
        ],
        rows,
    )
    return exp


def test_pim_comparison(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E17_pim_comparison", exp.report())
    rows = exp.result.rows
    for senders, cbt_state, cbt_stretch, pim_state, pim_stretch, sw_state, sw_stretch in rows:
        # Switchover delivers unicast-optimal delay...
        assert sw_stretch == pytest.approx(1.0)
        # ...but costs more state than CBT, increasingly so with senders.
        assert sw_state > cbt_state
        # The unidirectional RP detour makes PIM-no-switch stretch
        # at least CBT's bidirectional stretch.
        assert pim_stretch >= cbt_stretch - 1e-9
    # CBT state is flat in senders; PIM+SPT state grows.
    assert rows[0][1] == rows[-1][1]
    assert rows[-1][5] > rows[0][5]
