"""E7 — the Figure-1 walk-through, end to end, as a checked trace.

Replays the spec's complete worked example (§2.5, §2.6, §2.7, §5) on
the reconstructed Figure-1 network and verifies every milestone the
text states:

* A's join builds R1-R3-R4;
* B's join is proxy-acked by R2 (extra-LAN-hop case);
* with all members joined the tree has exactly the §5 shape;
* G's data packet reaches every member subnet exactly once;
* B's leave makes R2 quit while R3 (child R1 remains) stays.
"""


from benchmarks.conftest import publish
from repro import CBTDomain, build_figure1, group_address
from repro.harness.experiment import Experiment
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, judge_delivery, send_data
from repro.topology.figures import FIGURE1_MEMBERS


def run_walkthrough() -> Experiment:
    exp = Experiment(
        exp_id="E7",
        title="Spec Figure-1 walk-through milestones",
        paper_expectation="every milestone of §2.5/§2.6/§2.7/§5 reproduced",
    )
    net = build_figure1()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    net.run(until=3.0)
    milestones = []

    domain.join_host("A", group)
    net.run(until=6.0)
    milestones.append(
        (
            "§2.5 A joins -> branch R1-R3-R4",
            domain.on_tree_routers(group) == ["R1", "R3", "R4"],
        )
    )

    domain.join_host("B", group)
    net.run(until=9.0)
    milestones.append(
        ("§2.6 R2 proxy-acks B's join", bool(domain.protocol("R2").events_of("gdr")))
    )
    milestones.append(
        ("§2.6 D-DR R6 keeps no FIB entry", not domain.protocol("R6").is_on_tree(group))
    )

    remaining = [m for m in FIGURE1_MEMBERS if m not in ("A", "B")]
    start = net.scheduler.now
    for i, member in enumerate(remaining):
        net.scheduler.call_at(
            start + 0.05 * i,
            (lambda m: (lambda: domain.join_host(m, group)))(member),
        )
    net.run(until=start + 4.0)
    expected_edges = {
        ("R1", "R3"),
        ("R2", "R3"),
        ("R3", "R4"),
        ("R7", "R4"),
        ("R8", "R4"),
        ("R9", "R8"),
        ("R10", "R9"),
        ("R12", "R8"),
    }
    milestones.append(
        ("§5 full tree shape", set(domain.tree_edges(group)) == expected_edges)
    )

    delivery = judge_delivery(net, group, "G", send_data(net, "G", group))
    milestones.append(("§5 G's packet: exactly-once delivery", not delivery.findings("§5")))

    domain.leave_host("B", group)
    net.run(until=net.scheduler.now + 30.0)
    milestones.append(
        ("§2.7 B leaves -> R2 quits", not domain.protocol("R2").is_on_tree(group))
    )
    milestones.append(
        ("§2.7 R3 keeps child R1, stays", domain.protocol("R3").is_on_tree(group))
    )

    exp.run_sweep(
        ["milestone", "reproduced"],
        [(name, "yes" if ok else "NO") for name, ok in milestones],
    )
    exp.all_ok = all(ok for _, ok in milestones)
    return exp


def test_figure1_trace(benchmark):
    exp = benchmark.pedantic(run_walkthrough, rounds=1, iterations=1)
    publish("E7_figure1_trace", exp.report())
    assert exp.all_ok
