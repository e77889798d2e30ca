"""E2 — control and off-tree bandwidth overhead.

Reproduces the paper's bandwidth argument: flood-and-prune delivers
data onto links with no receivers downstream and pays prune traffic to
claw it back; CBT's explicit joins touch only member-to-tree paths and
its steady-state cost is keepalives on tree links.

Rows sweep group sparsity (members as a fraction of routers); the
quantity compared is link transmissions carrying the protocol's
operation for one data packet from one sender, plus control messages.
"""


from benchmarks.conftest import publish
from repro.harness.experiment import Experiment
from repro.harness.scenarios import (
    build_cbt_group,
    build_dvmrp_group,
    pick_members,
    send_data,
)
from repro.topology.generators import waxman_network

TOPOLOGY_SIZE = 32
SEED = 5


def cbt_costs(member_count: int) -> tuple:
    net = waxman_network(TOPOLOGY_SIZE, seed=SEED)
    members = pick_members(net, member_count, seed=SEED)
    domain, group = build_cbt_group(net, members, cores=["N0"])
    control = domain.control_messages_sent()
    before = sum(
        p.data_plane.stats.total_router_work() for p in domain.protocols.values()
    )
    send_data(net, members[0], group, count=1)
    work = (
        sum(p.data_plane.stats.total_router_work() for p in domain.protocols.values())
        - before
    )
    return control, work


def dvmrp_costs(member_count: int) -> tuple:
    net = waxman_network(TOPOLOGY_SIZE, seed=SEED)
    members = pick_members(net, member_count, seed=SEED)
    domain, group = build_dvmrp_group(net, members, prune_lifetime=600.0)
    send_data(net, members[0], group, count=1)  # the flood round
    flood_work = domain.data_forwards()
    control = domain.control_messages()
    # Second packet after prunes converge: steady-state cost.
    net.run(until=net.scheduler.now + 5.0)
    before = domain.data_forwards()
    send_data(net, members[0], group, count=1)
    steady_work = domain.data_forwards() - before
    return control, flood_work, steady_work


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E2",
        title="Control + data overhead per delivered packet",
        paper_expectation=(
            "flood-and-prune pays a topology-wide flood (plus prunes) "
            "per source; CBT pays joins once and forwards only on tree "
            "links, so its advantage grows as membership gets sparser"
        ),
    )
    rows = []
    for member_count in (2, 4, 8, 16):
        cbt_control, cbt_work = cbt_costs(member_count)
        dv_control, dv_flood, dv_steady = dvmrp_costs(member_count)
        rows.append(
            (
                member_count,
                f"{member_count / TOPOLOGY_SIZE:.0%}",
                cbt_control,
                cbt_work,
                dv_control,
                dv_flood,
                dv_steady,
            )
        )
    exp.run_sweep(
        [
            "members",
            "density",
            "cbt ctl msgs",
            "cbt fwd ops/pkt",
            "dvmrp ctl msgs",
            "dvmrp flood ops",
            "dvmrp steady ops",
        ],
        rows,
    )
    return exp


def test_control_overhead(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E2_control_overhead", exp.report())
    rows = exp.result.rows
    for row in rows:
        members, _, cbt_ctl, cbt_work, dv_ctl, dv_flood, dv_steady = row
        # The flood round always exceeds CBT's tree-limited forwarding.
        assert dv_flood > cbt_work
    # Sparsest case: the flood/tree work gap is large (>2x).
    sparse = rows[0]
    assert sparse[5] > 2 * sparse[3]
