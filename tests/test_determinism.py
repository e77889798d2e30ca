"""Determinism regression tests.

Reproducibility is a core property of this simulator: identical
scenarios must produce byte-identical traces and event logs.  Every
experiment in EXPERIMENTS.md relies on this.
"""

from repro import CBTDomain, build_figure1, group_address
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_data
from repro.harness.workload import generate_churn
from repro.topology.generators import waxman_graph, waxman_network


def run_scenario():
    net = build_figure1()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    net.run(until=3.0)
    for i, member in enumerate(["A", "B", "G", "H"]):
        net.scheduler.call_at(
            3.0 + 0.05 * i,
            (lambda m: (lambda: domain.join_host(m, group)))(member),
        )
    net.run(until=8.0)
    send_data(net, "G", group, count=2)
    net.fail_link("L_R3_R4")
    net.run(until=40.0)
    return net, domain, group


def trace_signature(net):
    return [
        (round(r.time, 9), r.kind, r.link_name, r.node_name, r.datagram.proto)
        for r in net.trace
    ]


def event_signature(domain):
    # Every router's milestones, read from the one event stream.
    records = domain.telemetry.bus.records("protocol")
    return [
        (event.router, round(event.time, 9), event.kind, event.detail)
        for name in sorted(domain.protocols)
        for event in records
        if event.router == name
    ]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        net1, domain1, group1 = run_scenario()
        net2, domain2, group2 = run_scenario()
        assert trace_signature(net1) == trace_signature(net2)

    def test_identical_runs_produce_identical_events(self):
        net1, domain1, group1 = run_scenario()
        net2, domain2, group2 = run_scenario()
        assert event_signature(domain1) == event_signature(domain2)

    def test_identical_trees(self):
        net1, domain1, group1 = run_scenario()
        net2, domain2, group2 = run_scenario()
        assert domain1.tree_edges(group1) == domain2.tree_edges(group2)

    def test_waxman_generation_is_seed_deterministic(self):
        for seed in range(3):
            a = waxman_graph(30, seed=seed)
            b = waxman_graph(30, seed=seed)
            assert {frozenset((e.u, e.v)) for e in a.edges} == {
                frozenset((e.u, e.v)) for e in b.edges
            }
            assert [(e.u, e.v, e.delay) for e in a.edges] == [
                (e.u, e.v, e.delay) for e in b.edges
            ]

    def test_churn_schedules_deterministic(self):
        hosts = [f"H{i}" for i in range(10)]
        a = generate_churn(hosts, duration=100, mean_interval=3, seed=11)
        b = generate_churn(hosts, duration=100, mean_interval=3, seed=11)
        assert a.events == b.events

    def test_realised_networks_assign_identical_addresses(self):
        net1 = waxman_network(12, seed=5)
        net2 = waxman_network(12, seed=5)
        for name in net1.routers:
            addrs1 = [i.address for i in net1.router(name).interfaces]
            addrs2 = [i.address for i in net2.router(name).interfaces]
            assert addrs1 == addrs2


class TestExplorerDeterminism:
    """The state-space explorer is a determinism *consumer*: identical
    explorations must produce identical run counts, visited-state
    fingerprints, and narratives, or counterexample replay is fiction."""

    def _explore_once(self, depth=3):
        from repro.explore.engine import explore
        from repro.explore.scenarios import get_scenario, scenario_options

        scenario = get_scenario("joins-race")
        options = scenario_options(scenario, max_decisions=depth)
        return explore(scenario, options)

    def test_identical_exploration_counts_and_digest(self):
        a = self._explore_once()
        b = self._explore_once()
        assert a.stats == b.stats
        assert a.visited_digest == b.visited_digest
        assert a.exhausted and b.exhausted

    def test_identical_run_narratives_across_processes_worth_of_state(self):
        # Replay the same deviating schedule twice with fresh worlds;
        # every recorded artefact must match (datagram uids are
        # process-global and deliberately excluded from fingerprints).
        from repro.explore.engine import run_schedule
        from repro.explore.scenarios import get_scenario, scenario_options

        scenario = get_scenario("lan-proxy")
        options = scenario_options(scenario, max_decisions=6)
        a = run_schedule(scenario, (1, 0, 1), options, limit=6)
        b = run_schedule(scenario, (1, 0, 1), options, limit=6)
        assert a.chosen() == b.chosen()
        assert a.fingerprints == b.fingerprints
        assert a.narrative == b.narrative
        assert (a.violation is None) == (b.violation is None)
