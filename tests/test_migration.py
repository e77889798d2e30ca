"""Core migration: locality placement handover, one owner for the core
list, promotion-to-root, and the experiment cell.

The migration subsystem (``repro.core.migration``) re-announces a
group's core list when membership drifts away from the announced
primary and executes a make-before-break handover.  These tests pin
the protocol-level contracts the chaos scenarios and the explorer
exercised:

* every router reads an announced core list from the coordinator and
  keeps no copy of it, so neither ``update_group`` nor a later
  ``create_group`` can leave a router serving an old list (the
  permanent-cache bug class);
* a core list riding a message counts only for a group the
  coordinator does not announce: a stale one cannot roll back a
  re-announcement (counted, not evented);
* a router promoted to primary sheds its stale upstream parent and
  stands as root (the promoted-primary loop class);
* malformed RP/Core-Reports are rejected, not stored;
* the migration cell is auditor-clean, preserves delivery continuity,
  and is byte-deterministic.
"""

from repro.core.audit import check_invariants
from repro.harness.migration_cell import MigrationCellResult, run_migration_cell
from repro.harness.scenarios import FAST_TIMERS, build_cbt_group
from repro.igmp.messages import CoreReport
from repro.netsim.address import group_address
from repro.topology.figures import build_figure1


def _stand_up(members, cores):
    network = build_figure1()
    domain, group = build_cbt_group(network, members, cores)
    return network, domain, group


class TestCoreCacheInvalidation:
    def test_update_group_replaces_cached_cores(self):
        network, domain, group = _stand_up(["A", "H"], ["R4", "R9"])
        old = domain.protocols["R1"].cores_for(group)
        assert old  # the cache is warm before the re-announcement
        domain.update_group(group, ["R9", "R4"])
        for name, protocol in domain.protocols.items():
            cores = protocol.cores_for(group)
            assert cores != old, f"{name} still serves the stale list"
            assert network.router("R9").owns_address(cores[0])

    def test_stale_message_borne_list_cannot_roll_back(self):
        network, domain, group = _stand_up(["A", "H"], ["R4", "R9"])
        old = domain.protocols["R1"].cores_for(group)
        domain.update_group(group, ["R9", "R4"])
        protocol = domain.protocols["R1"]
        announced = protocol.cores_for(group)
        registry = domain.telemetry.registry
        before = registry.value("cbt.router.R1.stale_cores_ignored")
        # A pre-handover JOIN still in flight carries the old tuple.
        protocol.learn_cores(group, old)
        assert protocol.cores_for(group) == announced
        assert registry.value("cbt.router.R1.stale_cores_ignored") == before + 1
        # The rollback is counted, never evented (quiescence safety).
        assert not protocol.events_of("stale_cores")

    def test_matching_unannounced_list_still_accepted(self):
        network, domain, group = _stand_up(["A", "H"], ["R4", "R9"])
        protocol = domain.protocols["R1"]
        announced = protocol.cores_for(group)
        protocol.learn_cores(group, announced)  # echo of the truth: fine
        assert protocol.cores_for(group) == announced

    def test_no_router_copies_the_announced_list(self):
        network, domain, group = _stand_up(["A", "H"], ["R4", "R9"])
        for name, protocol in domain.protocols.items():
            assert protocol.cores_for(group), name
            assert group not in protocol._learned_cores, name

    def test_announcement_overrides_a_learned_list(self):
        network, domain, group = _stand_up(["A"], ["R4", "R9"])
        other = group_address(1)
        protocol = domain.protocols["R1"]
        learned = (network.router("R4").primary_address,)
        protocol.learn_cores(other, learned)
        assert protocol.cores_for(other) == learned
        announced = domain.create_group(other, ["R9", "R4"])
        assert protocol.cores_for(other) == announced

    def test_unannounced_group_serves_the_learned_list(self):
        network, domain, group = _stand_up(["A"], ["R4", "R9"])
        other = group_address(1)
        protocol = domain.protocols["R1"]
        learned = (
            network.router("R9").primary_address,
            network.router("R4").primary_address,
        )
        assert protocol.cores_for(other) == ()
        protocol.learn_cores(other, learned)
        assert protocol.cores_for(other) == learned
        assert domain.protocols["R2"].cores_for(other) == ()


class TestPromotionToRoot:
    def test_promoted_primary_sheds_stale_parent(self):
        # H's branch runs R10 -> R9 -> ... -> R4, so the secondary core
        # R9 sits mid-tree with an upstream parent before promotion.
        network, domain, group = _stand_up(["A", "H"], ["R4", "R9"])
        entry = domain.protocols["R9"].fib.get(group)
        assert entry is not None and entry.has_parent
        old_parent = entry.parent_address
        domain.update_group(group, ["R9", "R4"])
        assert not entry.has_parent  # stands as root immediately
        assert domain.protocols["R9"].events_of("core_promoted")
        network.run(until=network.scheduler.now + FAST_TIMERS.echo_interval)
        # The old parent processed the quit: R9 is no longer its child.
        owner = next(
            protocol
            for protocol in domain.protocols.values()
            if protocol.router.owns_address(old_parent)
        )
        peer = owner.fib.get(group)
        assert peer is None or not any(
            network.router("R9").owns_address(child) for child in peer.children
        ), "old parent still lists the promoted primary as a child"
        assert check_invariants(domain) == []

    def test_promotion_with_no_state_is_inert(self):
        network, domain, group = _stand_up(["A"], ["R4", "R9"])
        # R10 never joined this tree: promotion must not conjure state.
        assert domain.protocols["R10"].fib.get(group) is None
        domain.update_group(group, ["R10", "R4"])
        assert domain.protocols["R10"].fib.get(group) is None
        assert not domain.protocols["R10"].events_of("core_promoted")


class TestMalformedCoreReport:
    def _malformed_report(self, group, cores, target_core):
        # The constructor validates, so forge the record the way a
        # hostile/buggy wire peer would: bypass ``CoreReport.__new__``.
        return tuple.__new__(CoreReport, (group, cores, target_core, 0, 3))

    def test_out_of_range_target_core_rejected(self):
        network, domain, group = _stand_up(["A"], ["R4", "R9"])
        protocol = domain.protocols["R1"]
        cores = protocol.cores_for(group)
        interface = protocol.router.interfaces[0]
        for bad in (len(cores), 7, -1):
            report = self._malformed_report(group, cores, bad)
            protocol._on_core_report(interface, report)
            assert protocol._target_core_index.get(group, 0) == 0
        rejected = protocol.events_of("core_report_rejected")
        assert len(rejected) == 3
        registry = domain.telemetry.registry
        assert (
            registry.value("cbt.router.R1.event.core_report_rejected") == 3
        )


class TestMigrationCell:
    def test_handover_clean_and_continuous(self):
        cell = run_migration_cell("figure1", seed=0)
        assert cell.clean
        assert cell.migrated
        assert cell.old_primary != cell.new_primary
        assert cell.delivery_before == 1.0
        assert cell.delivery_after == 1.0
        assert cell.quality_before and cell.quality_after
        assert cell.migration_control_cost > 0

    def test_cell_without_handover_is_not_clean(self):
        cell = MigrationCellResult(
            topology="figure1", seed=0, migrated=False, recovered=True,
            old_primary="R4", new_primary="R4", churn_left=(), churn_joined=(),
        )
        assert cell.findings() == ["migrated=False recovered=True"]
        assert not cell.clean
        assert cell.metrics["ci.migration.clean"] == 0

    def test_cell_fingerprint_deterministic(self):
        first = run_migration_cell("figure1", seed=0)
        second = run_migration_cell("figure1", seed=0)
        assert first.fingerprint() == second.fingerprint()


class TestRegistration:
    def test_chaos_scenarios_registered(self):
        from repro.chaos.scenarios import SCENARIOS

        assert "migration_churn" in SCENARIOS
        assert "migration_partition" in SCENARIOS

    def test_explore_scenario_registered(self):
        from repro.explore.scenarios import SCENARIOS

        assert "migration-race" in SCENARIOS

    def test_migration_units_in_tiers(self):
        from repro.harness.tiers import build_tier

        for tier in ("chaos", "full", "nightly"):
            units = build_tier(tier)
            migration = [u for u in units if u.kind == "migration"]
            assert migration, f"tier {tier} carries no migration units"
            # Unit identity (and each sub-seed) is pinned at build time.
            assert [u.unit_id for u in migration] == [
                u.unit_id for u in build_tier(tier) if u.kind == "migration"
            ]
            for unit in migration:
                assert isinstance(unit.param_dict["seed"], int)

    def test_migration_executor_registered(self):
        from repro.harness.parallel import UNIT_KINDS

        assert "migration" in UNIT_KINDS
        assert UNIT_KINDS["migration"].timeout > 0
