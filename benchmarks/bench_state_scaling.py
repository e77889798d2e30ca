"""E1 — router state scaling: CBT O(G) vs DVMRP O(S x G).

Reproduces the SIGCOMM'93 scaling table: total and per-router
multicast state as the number of groups and senders grows.  The paper
expectation: CBT state is independent of sender count and confined to
on-tree routers; flood-and-prune state grows with senders x groups and
lands in every router.
"""


from benchmarks.conftest import publish
from repro.harness.experiment import Experiment
from repro.harness.scenarios import (
    build_cbt_group,
    build_dvmrp_group,
    pick_members,
    send_data,
)
from repro.metrics.state import (
    cbt_entry_census,
    dvmrp_entry_census,
)
from repro.netsim.address import group_address
from repro.topology.generators import waxman_network

TOPOLOGY_SIZE = 32
MEMBERS_PER_GROUP = 5
SEED = 3


def cbt_state_for(groups: int, senders: int) -> tuple:
    net = waxman_network(TOPOLOGY_SIZE, seed=SEED)
    domain = None
    group_ids = []
    for g in range(groups):
        members = pick_members(net, MEMBERS_PER_GROUP, seed=SEED + g)
        domain, gid = build_cbt_group(
            net, members, cores=[f"N{g % TOPOLOGY_SIZE}"],
            group=group_address(g), domain=domain,
        )
        group_ids.append((gid, members))
    for gid, members in group_ids:
        for sender in members[:senders]:
            send_data(net, sender, gid, count=1)
    census = cbt_entry_census(domain)
    return census.total, census.max_router, census.routers_with_state


def dvmrp_state_for(groups: int, senders: int) -> tuple:
    net = waxman_network(TOPOLOGY_SIZE, seed=SEED)
    domain = None
    group_ids = []
    for g in range(groups):
        members = pick_members(net, MEMBERS_PER_GROUP, seed=SEED + g)
        domain, gid = build_dvmrp_group(
            net, members, group=group_address(g), domain=domain,
            prune_lifetime=600.0,
        )
        group_ids.append((gid, members))
    for gid, members in group_ids:
        for sender in members[:senders]:
            send_data(net, sender, gid, count=1)
    census = dvmrp_entry_census(domain)
    return census.total, census.max_router, census.routers_with_state


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E1",
        title="Router state: CBT O(G) vs flood-and-prune O(S*G)",
        paper_expectation=(
            "CBT entries scale with groups only and live on on-tree "
            "routers; DVMRP entries scale with senders x groups and "
            "appear in every router"
        ),
    )
    rows = []
    for groups, senders in [(1, 1), (1, 3), (2, 1), (2, 3), (4, 1), (4, 3)]:
        cbt_total, cbt_max, cbt_routers = cbt_state_for(groups, senders)
        dv_total, dv_max, dv_routers = dvmrp_state_for(groups, senders)
        rows.append(
            (
                groups,
                senders,
                cbt_total,
                cbt_max,
                f"{cbt_routers}/{TOPOLOGY_SIZE}",
                dv_total,
                dv_max,
                f"{dv_routers}/{TOPOLOGY_SIZE}",
            )
        )
    exp.run_sweep(
        [
            "groups",
            "senders",
            "cbt total",
            "cbt max/rtr",
            "cbt routers",
            "dvmrp total",
            "dvmrp max/rtr",
            "dvmrp routers",
        ],
        rows,
    )
    return exp


def test_state_scaling(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E1_state_scaling", exp.report())
    result = exp.result
    cbt_totals = {
        (row[0], row[1]): row[2] for row in result.rows
    }
    dvmrp_totals = {
        (row[0], row[1]): row[5] for row in result.rows
    }
    # CBT state is sender-independent.
    for groups in (1, 2, 4):
        assert cbt_totals[(groups, 1)] == cbt_totals[(groups, 3)]
    # DVMRP state grows with senders.
    for groups in (1, 2, 4):
        assert dvmrp_totals[(groups, 3)] > dvmrp_totals[(groups, 1)]
    # CBT grows with groups (roughly linearly).
    assert cbt_totals[(4, 1)] > cbt_totals[(1, 1)]
