"""E8 — rejoin loop detection on the Figure-5 topology (§6.3).

Measures the cost and timeliness of the REJOIN-NACTIVE mechanism: how
fast a loop is detected (one traversal of the looped path), how many
control messages the episode costs, and that the subtree re-homes.
"""


from benchmarks.conftest import publish
from repro import CBTDomain, build_figure5_loop, group_address
from repro.harness.experiment import Experiment
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS


def run_loop_episode() -> Experiment:
    exp = Experiment(
        exp_id="E8",
        title="Rejoin loop detection (Figure 5, §6.3)",
        paper_expectation=(
            "loop detected within one NACTIVE traversal of the looped "
            "path; QUIT breaks it; subtree re-homes along loop-free "
            "paths"
        ),
    )
    fig = build_figure5_loop()
    net = fig.network
    fig.isolate_chain()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["R1"])
    domain.start()
    net.run(until=3.0)
    for i, member in enumerate(["HM3", "HM4", "HM5"]):
        net.scheduler.call_at(
            3.0 + 0.1 * i,
            (lambda m: (lambda: domain.join_host(m, group)))(member),
        )
    net.run(until=8.0)
    fig.restore_shortcuts()
    net.run(until=10.0)
    fail_at = net.scheduler.now
    fig.fail_parent_link()
    net.run(until=fail_at + 300.0)

    p3 = domain.protocol("R3")
    lost = p3.events_of("parent_lost")
    loops = p3.events_of("loop_detected")
    control_total = domain.control_messages_sent()
    first_rejoin_to_loop = loops[0].time - lost[0].time if lost and loops else None
    consistent = True
    try:
        domain.assert_tree_consistent(group)
    except AssertionError:
        consistent = False

    exp.run_sweep(
        ["quantity", "value"],
        [
            ("parent loss detected at (s after cut)", round(lost[0].time - fail_at, 2)),
            ("first loop detected (s after loss)", round(first_rejoin_to_loop, 4)),
            ("loop episodes before re-home", len(loops)),
            ("QUITs sent by R3", p3.stats.sent.get("QUIT_REQUEST", 0)),
            ("final tree consistent", "yes" if consistent else "NO"),
            ("all members on-tree", all(
                domain.protocol(n).is_on_tree(group) for n in ("R3", "R4", "R5")
            )),
            ("total control messages (episode)", control_total),
        ],
    )
    exp.loops = loops
    exp.consistent = consistent
    exp.domain = domain
    exp.group = group
    return exp


def test_loop_detection(benchmark):
    exp = benchmark.pedantic(run_loop_episode, rounds=1, iterations=1)
    publish("E8_loop_detection", exp.report())
    assert exp.loops, "no loop was ever detected"
    assert exp.consistent
    # Loop detection is sub-second: one traversal of the 4-hop loop.
    detection_delay = float(exp.result.rows[1][1])
    assert detection_delay < 1.0
