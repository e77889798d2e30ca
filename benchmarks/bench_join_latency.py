"""E6a — join latency vs distance to the tree.

The spec's stated design goal: "we strive to keep join latency to an
absolute minimum" — one round trip between the joining DR and the
nearest on-tree router (or core).  This bench measures protocol-level
join latency as a function of hop distance on line topologies, and
checks it equals one RTT of the join/ack exchange.
"""

import pytest

from benchmarks.conftest import publish
from repro.harness.experiment import Experiment
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from repro import CBTDomain, group_address
from repro.topology.generators import line_network

LINK_DELAY = 0.001  # realise() scales abstract delay 1.0 to 1 ms


def join_latency_at_distance(hops: int) -> float:
    """Latency for the router ``hops`` links away from the core."""
    net = line_network(hops + 1)
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["N0"])
    domain.start()
    net.run(until=3.0)
    domain.join_host(f"H_N{hops}", group)
    net.run(until=10.0)
    joined = domain.protocol(f"N{hops}").events_of("joined")
    assert joined, "join never completed"
    return float(joined[0].detail)


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E6a",
        title="Join latency vs hop distance to the core (line topology)",
        paper_expectation=(
            "one join/ack round trip: latency ~= 2 x path one-way "
            "delay, linear in hop distance"
        ),
    )
    rows = []
    for hops in (1, 2, 4, 8, 16):
        latency = join_latency_at_distance(hops)
        # Join and ack each cross `hops` links, plus the local LAN leg
        # of the triggering IGMP report is excluded (measured from join
        # origination).
        expected = 2 * hops * LINK_DELAY
        rows.append(
            (hops, round(latency * 1000, 3), round(expected * 1000, 3),
             round(latency / expected, 2))
        )
    exp.run_sweep(
        ["hops to core", "measured ms", "2x one-way ms", "ratio"],
        rows,
    )
    return exp


def test_join_latency(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E6a_join_latency", exp.report())
    for hops, measured_ms, expected_ms, ratio in exp.result.rows:
        # Exactly one RTT (the simulator has no queueing noise).
        assert ratio == pytest.approx(1.0, rel=0.05), (hops, ratio)
