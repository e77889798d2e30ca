"""E13 (cross-validation) — packet-level delay stretch.

E4 computes shared-tree delay stretch from the static tree model; this
bench re-measures it with real packets in the simulator — senders
transmit through the protocol-built tree, receivers timestamp, and the
stretch is measured against simulated unicast delay — confirming the
static model and the packet-level system agree.
"""

from statistics import mean


from benchmarks.conftest import publish
from repro.app import MulticastReceiver, MulticastSender
from repro.harness.experiment import Experiment
from repro.harness.scenarios import build_cbt_group, pick_members
from repro.metrics.delay import summarise_stretch
from repro.topology.generators import DELAY_SCALE, realise, waxman_graph
from repro.topology.graph import Tree

TOPOLOGY_SIZE = 40
GROUP_SIZE = 6
SEEDS = range(4)


def packet_level_stretch(seed: int) -> tuple:
    """(measured mean stretch, model mean stretch) for one topology."""
    graph = waxman_graph(TOPOLOGY_SIZE, seed=seed)
    net = realise(graph)
    members = pick_members(net, GROUP_SIZE, seed=seed)
    member_routers = [m.replace("H_", "") for m in members]
    core = "N0"
    domain, group = build_cbt_group(net, members, cores=[core])

    receivers = {
        m: MulticastReceiver(net.host(m), domain.agent(m), group) for m in members
    }
    net.run(until=net.scheduler.now + 1.0)

    ratios = []
    for sender_name in members[:3]:
        sender = MulticastSender(net.host(sender_name), group, stream_id=sender_name)
        sender.send(1)
        net.run(until=net.scheduler.now + 2.0)
        sender_router = sender_name.replace("H_", "")
        unicast, _ = graph.dijkstra(sender_router, weight="delay")
        for receiver_name, receiver in receivers.items():
            if receiver_name == sender_name:
                continue
            stats = receiver.stats_for(sender_name)
            if not stats.latencies:
                continue
            measured = stats.latencies[-1]
            receiver_router = receiver_name.replace("H_", "")
            # Baseline: unicast delay router-to-router plus the two
            # 1 ms host LAN legs the multicast packet also crosses.
            baseline = unicast[receiver_router] * DELAY_SCALE + 0.002
            ratios.append(measured / baseline)
    # Evaluate the *actual* protocol-built tree in the static model:
    # joins follow unicast (cost-metric) routing, so the tree is
    # cost-shortest; its delays are whatever they are.
    protocol_tree = Tree(graph=graph, root=core)
    protocol_tree.edges = {
        tuple(sorted(edge)) for edge in domain.tree_edges(group)
    }
    model_mean, _ = summarise_stretch(
        graph, protocol_tree, member_routers[:3], member_routers
    )
    return mean(ratios), model_mean


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E13",
        title="Packet-level vs model delay stretch (Waxman n=40, |G|=6)",
        paper_expectation=(
            "the simulator's measured stretch matches the static "
            "shared-tree model (the two compute the same quantity)"
        ),
    )
    rows = []
    for seed in SEEDS:
        measured, model = packet_level_stretch(seed)
        rows.append(
            (seed, round(measured, 3), round(model, 3), round(measured / model, 3))
        )
    exp.run_sweep(
        ["seed", "measured stretch", "model stretch", "measured/model"],
        rows,
    )
    return exp


def test_packet_stretch(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E13_packet_stretch", exp.report())
    for seed, measured, model, ratio in exp.result.rows:
        assert measured >= 0.95  # never faster than unicast
        # Model and measurement agree within the host-leg fudge.
        assert 0.7 < ratio < 1.3, (seed, ratio)
