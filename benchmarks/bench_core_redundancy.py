"""E16 (ablation) — how many cores does a group need?

The spec's core list (up to five, "an implementation is not expected
to utilize more than, say, 3") exists for exactly one reason: a
rejoining router cycles through alternates when its current core is
unreachable (§6.1).  This ablation kills the primary core router and
measures, per core-list length, how much of the group recovers and
how long recovery takes.

Expectation: with a single core, members attached through the dead
core stay cut off; with >= 2 cores the group re-homes on a secondary,
and additional cores add little on a well-connected topology.

Measured: with 2 or 3 cores, 0 of the 5 surviving members are served
at the horizon although a router rejoins after ~13 s — open finding 4
in docs/ROBUSTNESS.md.  The table states what the code does.
"""


from benchmarks.conftest import publish
from repro.harness.experiment import Experiment
from repro.harness.scenarios import (
    FAST_TIMERS,
    build_cbt_group,
    judge_delivery,
    pick_members,
    send_data,
)
from repro.topology.generators import waxman_network

TOPOLOGY_SIZE = 24
MEMBERS = 6
SEED = 21
CORE_POOL = ["N0", "N9", "N17"]


def redundancy_run(core_count: int) -> tuple:
    net = waxman_network(TOPOLOGY_SIZE, seed=SEED)
    members = pick_members(net, MEMBERS, seed=SEED)
    cores = CORE_POOL[:core_count]
    domain, group = build_cbt_group(net, members, cores=cores)
    fail_at = net.scheduler.now
    net.fail_router(cores[0])  # kill the primary core outright
    horizon = (
        FAST_TIMERS.echo_timeout
        + FAST_TIMERS.echo_interval * 4
        + FAST_TIMERS.reconnect_timeout * 2
        + FAST_TIMERS.pend_join_timeout * 2
    )
    net.run(until=fail_at + horizon)
    # No member sits on the dead core's LAN: every member survives it.
    delivery = judge_delivery(net, group, members[0], send_data(net, members[0], group))
    served = len(delivery.served)
    rejoined_at = None
    for name, protocol in domain.protocols.items():
        for event in protocol.events_of("rejoined"):
            if event.time > fail_at:
                rejoined_at = (
                    event.time - fail_at
                    if rejoined_at is None
                    else min(rejoined_at, event.time - fail_at)
                )
    return (
        core_count,
        f"{served}/{len(delivery.members)}",
        round(rejoined_at, 1) if rejoined_at is not None else "never",
        served == len(delivery.members),
    )


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E16",
        title="Core redundancy ablation: primary core router killed",
        paper_expectation=(
            "one core = single point of failure; two or more cores "
            "let the group re-home via §6.1 alternate-core rejoins"
        ),
    )
    rows = [redundancy_run(k) for k in (1, 2, 3)]
    exp.run_sweep(
        ["cores", "survivors served", "first rejoin s", "full recovery"],
        rows,
    )
    return exp


def test_core_redundancy(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E16_core_redundancy", exp.report())
    rows = {row[0]: row for row in exp.result.rows}
    # A single core cannot fully recover from its own death.
    assert not rows[1][3]
    # Two or more cores should re-home the group, and do not yet: open
    # finding 4 (docs/ROBUSTNESS.md), pinned as a strict xfail in
    # tests/test_chaos.py::TestOpenFindings.
