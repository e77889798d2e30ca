"""Tests for the chaos subsystem: injectors, campaigns, auditor, CLI.

The quick campaign here is the same sweep ``repro chaos --quick``
runs, so a regression in any fault scenario fails the ordinary test
suite too, and every cell of the full Figure-1 and grid9 campaign is
pinned by its recovery time and control cost.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from repro.chaos import SCENARIOS, TOPOLOGIES, run_campaign  # noqa: E402
from repro.chaos.scenarios import QUICK_SCENARIOS  # noqa: E402
from repro.harness.campaign import run_scenario  # noqa: E402
from benchmarks.bench_core_redundancy import redundancy_run  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.core.constants import JoinSubcode  # noqa: E402
from repro.core.audit import (  # noqa: E402
    InvariantAuditor,
    InvariantViolation,
    check_invariants,
)
from tests.conftest import join_members  # noqa: E402


class TestCatalogue:
    def test_quick_scenarios_are_a_subset(self):
        assert set(QUICK_SCENARIOS) <= set(SCENARIOS)
        # The acceptance floor: a campaign sweeps at least 5 scenarios.
        assert len(QUICK_SCENARIOS) >= 5
        assert {"figure1", "waxman16", "grid9"} <= set(TOPOLOGIES)


class TestQuickCampaign:
    def test_recovers_clean_under_auditor(self):
        results = run_campaign(quick=True)
        assert len(results) == len(QUICK_SCENARIOS)
        # Plus the handover cells whose leaver was a probe receiver:
        # delivery is judged against the members after the churn.
        churn = [run_scenario("migration_churn", seed=seed) for seed in (0, 1, 3)]
        for result in results + churn:
            cell = f"{result.topology}/{result.scenario} seed={result.seed}"
            assert result.recovered, cell
            assert not result.violations, (cell, result.violations)
            assert result.audit_checks > 0, cell
            assert result.faults, cell
            assert result.delivery_before == 1.0, cell
            assert result.delivery_after == 1.0, cell
            assert result.clean, (cell, result.findings())
        assert [r for r in results if not r.clean] == []

    def test_campaign_is_deterministic(self):
        first = run_campaign(quick=True)
        second = run_campaign(quick=True)
        assert [r.fingerprint() for r in first] == [
            r.fingerprint() for r in second
        ]

    def test_single_cell_is_deterministic_across_seeds(self):
        a = run_scenario("link_flap", seed=1)
        b = run_scenario("link_flap", seed=1)
        c = run_scenario("link_flap", seed=2)
        assert a.fingerprint() == b.fingerprint()
        # Different seeds pick (potentially) different targets; at
        # minimum the seed is part of the identity.
        assert b.fingerprint() != c.fingerprint()


class TestOpenFindings:
    """Known protocol findings (docs/ROBUSTNESS.md, "Open findings"),
    pinned so tier-1 sees them: ``strict`` xfail, so the fix that makes
    a cell recover flips its test to a failure until the marker — and,
    for the two chaos seeds, the seed exclusion in ``benchmarks/e2e`` —
    is removed."""

    @pytest.mark.xfail(strict=True, reason="core_crash/waxman16 seed 17: parent loop")
    def test_core_crash_waxman16_seed17_recovers(self):
        result = run_scenario("core_crash", topology="waxman16", seed=17)
        assert not result.violations, result.violations
        assert result.recovered

    @pytest.mark.xfail(strict=True, reason="core_crash/waxman16 seed 29: never quiescent")
    def test_core_crash_waxman16_seed29_recovers(self):
        result = run_scenario("core_crash", topology="waxman16", seed=29)
        assert not result.violations, result.violations
        assert result.recovered

    @pytest.mark.xfail(strict=True, reason="core_crash/waxman16 seed 45: H_N3 unserved")
    def test_core_crash_waxman16_seed45_serves_every_member(self):
        result = run_scenario("core_crash", topology="waxman16", seed=45)
        assert result.clean, result.findings()

    @pytest.mark.xfail(strict=True, reason="E16: two cores, N0 killed: 0/5 served")
    def test_two_cores_rehome_when_the_primary_dies(self):
        # waxman_network(24, seed=21), cores N0 and N9, N0 killed.
        assert redundancy_run(2)[3]

    def test_the_findings_are_still_what_the_doc_says(self):
        # Not an xfail: if the failure *mode* changes, the doc entry is
        # stale even though the cells still fail.
        loop = run_scenario("core_crash", topology="waxman16", seed=17)
        assert any("parent pointers form a loop" in v for v in loop.violations)
        restless = run_scenario("core_crash", topology="waxman16", seed=29)
        assert not restless.recovered and not restless.violations
        # Recovered and auditor-clean, yet the member behind the
        # off-tree N3 misses both probes after the primary's restart.
        unserved = run_scenario("core_crash", topology="waxman16", seed=45)
        assert unserved.recovered and not unserved.violations
        assert unserved.findings() == ["delivery after recovery: H_N3 missed 2 probe(s)"]
        # The baseline cell's CBT leg is the same leg run, audited: it
        # fails by the same auditor finding.
        from repro.harness.baseline_cell import run_baseline_compare_cell

        result = run_baseline_compare_cell("core_crash", "waxman16", seed=17)
        cbt = next(o for o in result.outcomes if o.protocol == "cbt")
        assert not cbt.recovered and cbt.findings == loop.violations
        # E16: a router rejoins after ~13 s, yet no survivor is served.
        assert redundancy_run(2)[1:3] == ("0/5", 13.1)


class TestAuditor:
    def test_manufactured_stranding_trips_the_auditor(
        self, figure1_domain, figure1_network
    ):
        """Corrupting a transit router's parent pointer must raise
        InvariantViolation with findings and an event trace."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["H"])
        auditor = InvariantAuditor(domain, interval=0.5)
        auditor.start()
        figure1_network.run(until=figure1_network.scheduler.now + 2.0)
        p8 = domain.protocol("R8")
        entry = p8.fib.get(group)
        assert entry is not None and entry.has_children
        entry.clear_parent()  # stranded subtree root, no repair state
        with pytest.raises(InvariantViolation) as exc:
            # Past the auditor's grace window, 28 s under FAST_TIMERS.
            figure1_network.run(until=figure1_network.scheduler.now + 40.0)
        violation = exc.value
        assert any("R8" in str(f) for f in violation.findings)
        assert violation.trace
        auditor.stop()

    def test_self_reference_is_an_error(self, figure1_domain, figure1_network):
        """A router listed as its own parent/child (what a join looped
        back to its sender used to weld) is flagged immediately."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["H"])
        p10 = domain.protocol("R10")
        entry = p10.fib.get(group)
        own = p10.router.interfaces[0]
        entry.add_child(own.address, own.vif)
        findings = check_invariants(domain)
        assert any(
            "itself" in f.message and f.router == "R10" for f in findings
        )

    def test_join_to_owned_core_address_is_refused(
        self, figure1_domain, figure1_network
    ):
        """A core never originates a join toward its own address (the
        datagram would be delivered straight back to it)."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A"])
        p4 = domain.protocol("R4")
        own_core = next(
            c for c in p4.cores_for(group) if p4.router.owns_address(c)
        )
        started = p4._originate_join(
            group,
            cores=p4.cores_for(group),
            target_core=own_core,
            subcode=JoinSubcode.ACTIVE_JOIN,
            origin=p4.address,
        )
        assert started is False
        assert p4.events_of("self_core_skipped")


class TestCLI:
    def test_chaos_quick_exits_zero(self, capsys):
        assert main(["chaos", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all cells recovered" in out
        for scenario in QUICK_SCENARIOS:
            assert scenario in out

    def test_chaos_rejects_unknown_scenario(self, capsys):
        assert main(["chaos", "--scenario", "meteor_strike"]) == 2


#: ``(recovery_time, control_cost)`` of seeds 0, 1 and 2 of every cell
#: the full campaign runs on Figure 1 and grid9.  Sim-time counts, so
#: compared for equality: a moved number means a scenario recovers
#: differently, faster or slower.  Since HELLOs stay off point-to-point
#: links, grid9 seed 0 no longer has N2 proxy-ack N5 across one (and N5
#: yield the LAN) after the fault: N5 rejoins itself, and link_flap
#: recovers in 6 s (was 9), migration_partition at once (was 9 s).  The
#: lossy cells draw their losses in a different packet order.
CELL_COSTS = {
    "figure1/lossy_links": ((1e-06, 60), (1e-06, 58), (1e-06, 57)),
    "figure1/link_flap": ((3.000001, 109), (6.000001, 120), (6.000001, 149)),
    "figure1/partition": ((3.000001, 96), (6.000001, 122), (3.000001, 111)),
    "figure1/blackout": ((3.000001, 132), (3.000001, 134), (3.000001, 134)),
    "figure1/router_crash": ((6.000001, 112), (3.000001, 96), (3.000001, 126)),
    "figure1/core_crash": ((6.000001, 145), (6.000001, 145), (6.000001, 145)),
    "figure1/jitter_storm": ((1e-06, 72), (1e-06, 72), (1e-06, 72)),
    "figure1/migration_churn": ((3.000001, 64), (3.000001, 74), (3.000001, 62)),
    "figure1/migration_partition": ((3.000001, 138), (3.000001, 164), (3.000001, 128)),
    "grid9/lossy_links": ((1e-06, 37), (1e-06, 47), (1e-06, 49)),
    "grid9/link_flap": ((6.000001, 100), (6.000001, 90), (6.000001, 104)),
    "grid9/partition": ((6.000001, 72), (6.000001, 90), (6.000001, 90)),
    "grid9/blackout": ((1e-06, 88), (1e-06, 130), (3.000001, 152)),
    "grid9/router_crash": ((6.000001, 72), (6.000001, 92), (6.000001, 96)),
    "grid9/core_crash": ((6.000001, 179), (3.000001, 199), (3.000001, 180)),
    "grid9/jitter_storm": ((1e-06, 48), (1e-06, 60), (1e-06, 60)),
    "grid9/migration_churn": ((3.000001, 47), (3.000001, 53), (3.000001, 67)),
    "grid9/migration_partition": ((1e-06, 87), (3.000001, 89), (1e-06, 87)),
}


class TestPinnedCellCosts:
    @pytest.mark.parametrize(
        "quick, topologies, cells",
        [(True, ("figure1",), 5), (False, ("figure1", "grid9"), 54)],
    )
    def test_every_cell_costs_what_it_did(self, quick, topologies, cells):
        results = run_campaign(quick=quick, topologies=topologies)
        assert [r for r in results if not r.clean] == []
        costs = {
            (f"{r.topology}/{r.scenario}", r.seed): (
                round(r.recovery_time, 6),
                r.control_cost,
            )
            for r in results
        }
        assert len(costs) == cells
        assert costs == {
            (cell, seed): CELL_COSTS[cell][seed] for cell, seed in costs
        }
