"""Conservation laws over the telemetry counters.

Every message the simulation creates must be accounted for exactly
once — delivered, dropped with a reason, or in flight — and the
protocol-, wire-, and sink-level counters must agree across layers.
The laws hold at *any* instant, so the suite checks them mid-fault as
well as after recovery, across every chaos scenario and every explore
scenario.
"""

import json

import pytest

from repro.chaos.scenarios import SCENARIOS as CHAOS_SCENARIOS, ChaosContext
from repro.core.bootstrap import CBTDomain
from repro.explore.scenarios import SCENARIOS as EXPLORE_SCENARIOS
from repro.harness.campaign import TOPOLOGIES
from repro.harness.scenarios import FAST_TIMERS, build_cbt_group
from repro.metrics.overhead import cbt_control_overhead, registry_control_overhead
from repro.telemetry.conservation import check_conservation
from tests import reference_sweeps


def _chaos_cell(scenario_name: str, seed: int = 0, topology: str = "figure1"):
    """Stand up a tree, apply the scenario's fault schedule, and return
    (network, domain, schedule) without running past the faults."""
    network, members, cores = TOPOLOGIES[topology].build(seed)
    domain, group = build_cbt_group(network, members, cores, timers=FAST_TIMERS)
    context = ChaosContext(
        network=network,
        domain=domain,
        group=group,
        members=members,
        cores=cores,
        seed=seed,
        timers=FAST_TIMERS,
        start=network.scheduler.now + 1.0,
    )
    schedule = CHAOS_SCENARIOS[scenario_name](context)
    schedule.apply(network)
    return network, domain, schedule


class TestChaosConservation:
    @pytest.mark.parametrize("scenario", sorted(CHAOS_SCENARIOS))
    def test_laws_hold_after_faults(self, scenario):
        network, domain, schedule = _chaos_cell(scenario)
        network.run(until=schedule.last_time + 10.0)
        assert check_conservation(network, domain) == []

    @pytest.mark.parametrize("scenario", ["partition", "router_crash"])
    def test_laws_hold_mid_fault(self, scenario):
        # Snapshot while the fault is still active and messages are in
        # flight: the laws are instant-valid, not quiescence-only.
        network, domain, schedule = _chaos_cell(scenario)
        network.run(until=(network.scheduler.now + schedule.last_time) / 2.0)
        assert check_conservation(network, domain) == []

    def test_laws_hold_on_other_topology(self):
        network, domain, schedule = _chaos_cell("link_flap", topology="grid9")
        network.run(until=schedule.last_time + 10.0)
        assert check_conservation(network, domain) == []


class TestExploreConservation:
    @pytest.mark.parametrize("name", sorted(EXPLORE_SCENARIOS))
    def test_laws_hold_for_scenario_world(self, name):
        scenario = EXPLORE_SCENARIOS[name]
        world = scenario.build()
        start = world.network.scheduler.now
        for offset, action in world.actions:
            world.network.scheduler.call_at(start + offset, action)
        world.network.run(until=start + scenario.window + scenario.settle)
        assert check_conservation(world.network, world.domain) == []


class TestWalkthroughConservation:
    def test_figure1_walkthrough(self):
        from repro.cli import _run_figure1

        net, domain, _group, _members = _run_figure1(all_members=True)
        assert check_conservation(net, domain) == []

    def test_write_behind_the_mutators_is_a_finding(self):
        """The data plane forwards from the entry the four ``FIBEntry``
        mutators download; a write that bypasses them is the one way
        that entry goes stale, and the FIB law reports it."""
        from repro.cli import _run_figure1

        net, domain, group, _members = _run_figure1(all_members=True)
        entry = domain.protocol("R4").fib.get(group)
        child, vif = next(iter(entry.children.items()))
        del entry.children[child]  # not entry.remove_child(child)
        findings = check_conservation(net, domain)
        assert len(findings) == 1
        assert "router R4" in findings[0] and "stale download" in findings[0]
        entry.children[child] = vif
        assert check_conservation(net, domain) == []
        database = domain.protocol("R4").igmp.database
        member_vif = database.interfaces_with(group)[0]
        database._by_interface[member_vif].discard(group)  # not database._remove(...)
        assert any(
            "router R4" in finding and "member index" in finding
            for finding in check_conservation(net, domain)
        )

    def test_telemetry_off_is_vacuous(self):
        from repro.topology.builder import Network

        network = Network(telemetry_enabled=False)
        r1, r2 = network.add_router("R1"), network.add_router("R2")
        s1 = network.add_subnet("S1", [r1])
        network.add_subnet("S2", [r2])
        network.add_p2p("L12", r1, r2)
        network.add_host("A", s1)
        domain = CBTDomain(network, timers=FAST_TIMERS)
        domain.start()
        network.run(until=5.0)
        assert not network.telemetry.enabled
        assert network.telemetry.registry.snapshot() == {}
        assert check_conservation(network, domain) == []


class TestControlCountAgreement:
    """The control counts summed from the ``ControlStats`` counters
    must agree with the registry's own pattern read (the
    double-counting guard)."""

    def _domain_after_faults(self):
        network, domain, schedule = _chaos_cell("link_flap")
        network.run(until=schedule.last_time + 10.0)
        return domain

    def test_domain_totals_agree(self):
        domain = self._domain_after_faults()
        for exclude_hello in (True, False):
            assert domain.control_messages_sent(
                exclude_hello=exclude_hello
            ) == reference_sweeps.control_messages_sent(domain, exclude_hello)
        assert domain.control_messages_sent() > 0

    def test_per_type_overheads_agree(self):
        domain = self._domain_after_faults()
        for exclude_hello in (True, False):
            stats_path = cbt_control_overhead(domain, exclude_hello=exclude_hello)
            registry_path = registry_control_overhead(
                domain, exclude_hello=exclude_hello
            )
            assert stats_path == registry_path
        assert cbt_control_overhead(domain)  # non-trivial totals


class TestSnapshotDeterminism:
    def test_stats_json_byte_deterministic(self):
        from repro.cli import _run_figure1

        def snapshot_json() -> str:
            net, _domain, _group, _members = _run_figure1()
            return json.dumps(
                net.telemetry.registry.snapshot(), indent=2, sort_keys=True
            )

        assert snapshot_json() == snapshot_json()
