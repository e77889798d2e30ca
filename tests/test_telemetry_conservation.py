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

from repro.chaos.scenarios import SCENARIOS as CHAOS_SCENARIOS
from repro.core.messages import MessageType
from repro.explore.scenarios import SCENARIOS as EXPLORE_SCENARIOS
from repro.harness.campaign import LEGS, TOPOLOGIES, CellRun
from repro.harness.scenarios import build_cbt_group
from repro.metrics.overhead import trace_overhead
from repro.telemetry.conservation import check_conservation
from tests import reference_sweeps


def _chaos_cell(
    scenario_name: str, seed: int = 0, topology: str = "figure1", trace: bool = False
):
    """Stand up a tree, apply the scenario's fault schedule, and return
    (network, domain, schedule) without running past the faults.  The
    cells' worlds record no packet trace; ``trace`` switches it on
    before the first packet moves, for a test that reads it."""
    network, members, cores = TOPOLOGIES[topology].build(seed)
    network.trace.enabled = trace
    domain, group = build_cbt_group(network, members, cores)
    run = CellRun(
        LEGS["cbt"],
        network,
        domain,
        group,
        members,
        cores,
        base=network.scheduler.now,
        seed=seed,
    )
    schedule = CHAOS_SCENARIOS[scenario_name](run)
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
        registry = domain.telemetry.registry
        by_name = {}
        for name in domain.protocols:
            prefix = f"cbt.router.{name}.tx."
            for counter_name, value in registry.matching(prefix + "*").items():
                msg_type = counter_name[len(prefix):].upper()
                if value:
                    by_name[msg_type] = by_name.get(msg_type, 0) + value
        sent = {}
        for protocol in domain.protocols.values():
            for msg_type, count in protocol.stats.sent.items():
                sent[msg_type] = sent.get(msg_type, 0) + count
        assert sent == by_name
        by_name.pop("HELLO")
        assert sum(by_name.values()) == domain.control_messages_sent()
        assert by_name  # non-trivial totals

    def test_walkthrough_count_matches_the_wire_records(self):
        # The paper's control count, read by an observer that shares
        # nothing with the counters: the packet trace's tx records.
        from repro.cli import _run_figure1

        net, domain, _group, _members = _run_figure1()
        sent = domain.control_messages_sent(exclude_hello=False)
        assert sent > 0
        assert check_conservation(net, domain) == []
        assert trace_overhead(net.trace).control_messages == sent

    def test_wire_records_match_label_counters_under_faults(self):
        # Under link_flap pre-wire drops pull protocol sends and wire
        # transmissions apart; the trace must side with the wire.
        network, domain, schedule = _chaos_cell("link_flap", trace=True)
        network.run(until=schedule.last_time + 10.0)
        registry = network.telemetry.registry
        on_wire = sum(
            registry.value(f"netsim.msg.{msg_type.name}.tx")
            for msg_type in MessageType
        )
        assert trace_overhead(network.trace).control_messages == on_wire
        assert on_wire < domain.control_messages_sent(exclude_hello=False)


class TestSnapshotDeterminism:
    def test_stats_json_byte_deterministic(self):
        from repro.cli import _run_figure1

        def snapshot_json() -> str:
            net, _domain, _group, _members = _run_figure1()
            return json.dumps(
                net.telemetry.registry.snapshot(), indent=2, sort_keys=True
            )

        assert snapshot_json() == snapshot_json()
