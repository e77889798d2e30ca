"""Ablation — aggregated echo keepalives (spec §8.4).

The spec allows CBT echo requests/replies to be aggregated on links
where tree branches of several groups overlap, "provided aggregation
is at all possible".  This bench counts keepalive messages per minute
on a domain carrying G groups with identical trees, with and without
aggregation.

Expectation: per-group keepalives grow linearly in G; aggregated
keepalives stay constant per (child, parent) pair.
"""


from benchmarks.conftest import publish
from repro import CBTDomain, group_address
from repro.harness.experiment import Experiment
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from repro.topology.figures import build_figure1

MEASURE_WINDOW = 60.0  # simulated seconds


def echoes_per_window(group_count: int, aggregate: bool) -> int:
    net = build_figure1()
    domain = CBTDomain(
        net,
        timers=FAST_TIMERS,
        igmp_config=FAST_IGMP,
        aggregate_echoes=aggregate,
    )
    domain.start()
    net.run(until=3.0)
    start = net.scheduler.now
    for g in range(group_count):
        group = group_address(g)
        domain.create_group(group, cores=["R4", "R9"])
        for i, member in enumerate(("A", "B", "H")):
            net.scheduler.call_at(
                start + 0.1 * (g * 3 + i),
                (lambda m, gg: (lambda: domain.join_host(m, gg)))(member, group),
            )
    net.run(until=start + group_count * 0.5 + 3.0)
    before = sum(
        p.stats.sent.get("ECHO_REQUEST", 0) for p in domain.protocols.values()
    )
    net.run(until=net.scheduler.now + MEASURE_WINDOW)
    after = sum(
        p.stats.sent.get("ECHO_REQUEST", 0) for p in domain.protocols.values()
    )
    return after - before


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E11",
        title=f"Echo keepalives per {MEASURE_WINDOW:.0f}s window (Figure 1)",
        paper_expectation=(
            "per-group echoes grow ~linearly with group count; "
            "aggregated echoes stay ~constant (one per child-parent "
            "pair per interval)"
        ),
    )
    rows = []
    for group_count in (1, 2, 4, 8):
        plain = echoes_per_window(group_count, aggregate=False)
        aggregated = echoes_per_window(group_count, aggregate=True)
        rows.append(
            (group_count, plain, aggregated, round(plain / max(aggregated, 1), 2))
        )
    exp.run_sweep(
        ["groups", "per-group echoes", "aggregated echoes", "saving"],
        rows,
    )
    return exp


def test_keepalive_aggregation(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E11_keepalive_aggregation", exp.report())
    rows = exp.result.rows
    # Aggregation never sends more than per-group keepalives.
    for groups, plain, aggregated, saving in rows:
        assert aggregated <= plain
    # Per-group echoes grow with groups; aggregated stay ~flat.
    assert rows[-1][1] > rows[0][1] * 4
    assert rows[-1][2] <= rows[0][2] * 2
