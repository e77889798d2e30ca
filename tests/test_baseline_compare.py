"""Tests for the CBT vs DVMRP vs HPIM-DM comparison cells.

The load-bearing properties: the fault schedule is derived once and
provably identical on every protocol leg (the relative-time signature
digest), cells are deterministic (same inputs, byte-identical
fingerprints), migration-style schedules that embed protocol callables
are rejected, and the CI wiring exposes the cells with pinned seeds.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.audit import InvariantAuditor
from repro.harness.baseline_cell import (
    BASELINE_SCENARIOS,
    QUICK_BASELINE_CELLS,
    _relative_signature,
    run_baseline_compare_cell,
)
from repro.harness.campaign import LEGS, run_scenario
from repro.harness.scenarios import build_dvmrp_group
from repro.netsim.faults import FaultSchedule, LinkFlap, NodeOutage


class TestScheduleIdentity:
    def test_all_legs_share_one_schedule_digest(self):
        result = run_baseline_compare_cell("link_flap", "figure1", seed=0)
        assert tuple(o.protocol for o in result.outcomes) == tuple(LEGS)
        assert result.schedule_digest
        assert result.faults  # the schedule actually did something

    def test_relative_signature_ignores_absolute_time(self):
        def schedule_at(base):
            schedule = FaultSchedule()
            schedule.add(LinkFlap(at=base + 1.0, link="L", duration=2.0))
            schedule.add(NodeOutage(at=base + 3.0, node="R1", duration=1.0))
            return schedule

        early = _relative_signature(schedule_at(10.0), 10.0)
        late = _relative_signature(schedule_at(99.5), 99.5)
        assert early == late

    def test_callable_carrying_schedule_rejected(self):
        schedule = FaultSchedule()
        schedule.add(
            NodeOutage(at=1.0, node="R1", duration=1.0, on_restart=lambda n: None)
        )
        with pytest.raises(ValueError, match="callable"):
            _relative_signature(schedule, 0.0)

    def test_migration_scenarios_not_offered(self):
        assert all("migration" not in s for s in BASELINE_SCENARIOS)
        with pytest.raises(ValueError, match="not replayable"):
            run_baseline_compare_cell("migration_handover")


class TestDeterminism:
    def test_same_cell_twice_is_byte_identical(self):
        a = run_baseline_compare_cell("router_crash", "figure1", seed=0)
        b = run_baseline_compare_cell("router_crash", "figure1", seed=0)
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_changes_fingerprint(self):
        a = run_baseline_compare_cell("lossy_links", "figure1", seed=0)
        b = run_baseline_compare_cell("lossy_links", "figure1", seed=1)
        assert a.fingerprint() != b.fingerprint()


class TestRecovery:
    @pytest.mark.parametrize("scenario,topology", QUICK_BASELINE_CELLS)
    def test_quick_cells_recover_cleanly(self, scenario, topology):
        result = run_baseline_compare_cell(scenario, topology, seed=0)
        assert result.clean, result.findings()
        for outcome in result.outcomes:
            assert outcome.delivery_after == pytest.approx(1.0), (
                outcome.protocol,
                outcome.delivery_after,
            )

    def test_hpimdm_outcome_measured_from_same_faults(self):
        result = run_baseline_compare_cell("link_flap", "figure1", seed=0)
        hpim = result.outcome("hpimdm")
        cbt = result.outcome("cbt")
        assert hpim.recovered and cbt.recovered
        # Both legs saw the identical relative fault actions.
        assert result.faults == sorted(result.faults)
        assert hpim.state_total > 0
        assert hpim.routers_with_state > 0


class TestCIWiring:
    def test_quick_units_pinned_and_sorted(self):
        from repro.harness.tiers import _baseline_compare_units

        units = _baseline_compare_units(0, quick=True)
        ids = [u.unit_id for u in units]
        assert ids == sorted(ids)
        assert len(ids) == len(QUICK_BASELINE_CELLS)
        again = _baseline_compare_units(0, quick=True)
        assert units == again
        reseeded = _baseline_compare_units(1, quick=True)
        assert [u.unit_id for u in reseeded] == ids
        assert reseeded != units  # derived seeds differ

    def test_nightly_units_cover_full_matrix(self):
        from repro.harness.campaign import TOPOLOGIES
        from repro.harness.tiers import _baseline_compare_units

        units = _baseline_compare_units(0, quick=False)
        assert len(units) == len(BASELINE_SCENARIOS) * len(TOPOLOGIES)

    def test_executor_reports_protocol_metrics(self):
        from repro.harness.parallel import UNIT_KINDS

        payload = UNIT_KINDS["baseline-compare"].execute(
            {"scenario": "link_flap", "topology": "figure1", "seed": 0}
        )
        assert payload["status"] == "ok"
        assert payload["metrics"]["ci.baseline.cells"] == 1
        for protocol in tuple(LEGS):
            assert f"ci.baseline.{protocol}.control_cost" in payload["metrics"]


class TestOneLegRun:
    """Every leg is a ``LEGS`` row through the one leg run, so the CBT
    leg *is* the chaos cell, a new protocol is one row, and the CBT leg
    is audited."""

    @pytest.mark.parametrize("scenario", ["link_flap", "router_crash"])
    def test_cbt_leg_measures_what_the_chaos_cell_measures(self, scenario):
        chaos = run_scenario(scenario, "figure1", 0)
        cbt = run_baseline_compare_cell(scenario, "figure1", 0).outcome("cbt")
        assert (
            cbt.recovered,
            cbt.recovery_time,
            cbt.control_cost,
            cbt.delivery_before,
            cbt.delivery_after,
        ) == (
            chaos.recovered,
            chaos.recovery_time,
            chaos.control_cost,
            chaos.delivery_before,
            chaos.delivery_after,
        )

    def test_a_new_protocol_is_one_row(self, monkeypatch):
        from repro.harness.parallel import UNIT_KINDS

        plain = run_baseline_compare_cell("link_flap", "figure1", 0)
        long_prunes = dataclasses.replace(
            LEGS["dvmrp"],
            build=lambda network, members, cores, timers: build_dvmrp_group(
                network, members, prune_lifetime=600.0
            ),
        )
        monkeypatch.setitem(LEGS, "dvmrp_long", long_prunes)
        result = run_baseline_compare_cell("link_flap", "figure1", 0)
        assert [o.protocol for o in result.outcomes] == [
            "cbt",
            "dvmrp",
            "hpimdm",
            "dvmrp_long",
        ]
        assert result.schedule_digest == plain.schedule_digest
        assert result.outcomes[:3] == plain.outcomes
        assert result.outcome("dvmrp_long").recovered
        payload = UNIT_KINDS["baseline-compare"].execute(
            {"scenario": "link_flap", "topology": "figure1", "seed": 0}
        )
        assert "ci.baseline.dvmrp_long.control_cost" in payload["metrics"]

    def test_the_cbt_leg_runs_under_one_auditor(self, monkeypatch):
        started = []
        start = InvariantAuditor.start
        monkeypatch.setattr(
            InvariantAuditor, "start", lambda self: started.append(self) or start(self)
        )
        run_baseline_compare_cell("router_crash", "figure1", 0)
        assert len(started) == 1


class TestHPIMStateChanges:
    def test_quick_cell_state_change_count_is_pinned(self, monkeypatch):
        """HPIM-DM's quiescence counter is a plain count of its state
        changes; the count a quick cell ends on is pinned by equality."""
        readings = []
        leg = LEGS["hpimdm"]

        def activity(domain):
            readings.append(leg.activity(domain))
            return readings[-1]

        monkeypatch.setitem(LEGS, "hpimdm", dataclasses.replace(leg, activity=activity))
        result = run_baseline_compare_cell("link_flap", "figure1", seed=1)
        assert result.outcome("hpimdm").recovered
        assert readings[-1] == 288
        assert readings == sorted(readings)
