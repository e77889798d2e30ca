"""Tests for GroupCoordinator and CBTDomain assembly."""

import pytest

from repro import CBTDomain, group_address
from repro.core.bootstrap import GroupCoordinator
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from repro.netsim.address import IPv4Address


class TestGroupCoordinator:
    def test_create_and_lookup(self):
        coordinator = GroupCoordinator()
        group = group_address(0)
        cores = (IPv4Address("10.0.0.1"), IPv4Address("10.0.1.1"))
        assert coordinator.create_group(group, cores) == cores
        assert coordinator.cores_for(group) == cores

    def test_unknown_group_empty(self):
        assert GroupCoordinator().cores_for(group_address(0)) == ()

    def test_requires_cores(self):
        with pytest.raises(ValueError):
            GroupCoordinator().create_group(group_address(0), [])

    def test_groups_sorted(self):
        coordinator = GroupCoordinator()
        coordinator.create_group(group_address(2), [IPv4Address("10.0.0.1")])
        coordinator.create_group(group_address(1), [IPv4Address("10.0.0.1")])
        assert coordinator.groups() == [group_address(1), group_address(2)]

    def test_recreate_overwrites(self):
        coordinator = GroupCoordinator()
        group = group_address(0)
        coordinator.create_group(group, [IPv4Address("10.0.0.1")])
        coordinator.create_group(group, [IPv4Address("10.0.9.9")])
        assert coordinator.cores_for(group) == (IPv4Address("10.0.9.9"),)


class TestCBTDomain:
    def test_core_specs_accept_names_routers_addresses(self, figure1_network):
        domain = CBTDomain(
            figure1_network, timers=FAST_TIMERS, igmp_config=FAST_IGMP
        )
        group = group_address(0)
        r4 = figure1_network.router("R4")
        cores = domain.create_group(
            group, cores=["R4", r4, r4.primary_address]
        )
        assert cores == (r4.primary_address,) * 3

    def test_partial_cbt_deployment(self, figure1_network):
        domain = CBTDomain(
            figure1_network,
            timers=FAST_TIMERS,
            igmp_config=FAST_IGMP,
            cbt_routers=["R1", "R3", "R4"],
        )
        assert set(domain.protocols) == {"R1", "R3", "R4"}

    def test_start_idempotent(self, figure1_network):
        domain = CBTDomain(
            figure1_network, timers=FAST_TIMERS, igmp_config=FAST_IGMP
        )
        domain.start()
        domain.start()  # must not double-arm timers
        figure1_network.run(until=1.0)

    def test_agent_and_protocol_accessors(self, figure1_network):
        domain = CBTDomain(
            figure1_network, timers=FAST_TIMERS, igmp_config=FAST_IGMP
        )
        assert domain.protocol("R1").router is figure1_network.router("R1")
        assert domain.agent("A").host is figure1_network.host("A")

    def test_tree_edges_empty_before_joins(self, figure1_domain):
        domain, group = figure1_domain
        assert domain.tree_edges(group) == []
        assert domain.on_tree_routers(group) == []

    def test_total_fib_state_counts(self, figure1_domain, figure1_network):
        from tests.conftest import join_members

        domain, group = figure1_domain
        assert domain.total_fib_state() == 0
        join_members(figure1_network, domain, group, ["A"])
        # R1 (parent), R3 (parent+child), R4 (child) => 4 relationships.
        assert domain.total_fib_state() == 4

    def test_assert_tree_consistent_detects_orphan_child(
        self, figure1_domain, figure1_network
    ):
        from tests.conftest import join_members

        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A"])
        # Corrupt: give R1 a parent that doesn't list it as a child.
        entry = domain.protocol("R1").fib.get(group)
        entry.set_parent(
            figure1_network.router("R6").primary_address, entry.parent_vif
        )
        with pytest.raises(AssertionError):
            domain.assert_tree_consistent(group)

    def test_assert_tree_consistent_detects_parent_loop(
        self, figure1_domain, figure1_network
    ):
        from tests.conftest import join_members

        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A"])
        # Corrupt: R4 (root) points back to R1, closing a parent loop.
        p4 = domain.protocol("R4")
        p1_addr = figure1_network.router("R1").primary_address
        entry4 = p4.fib.get(group)
        entry4.set_parent(p1_addr, 0)
        p1 = domain.protocol("R1")
        entry1 = p1.fib.get(group)
        entry1.add_child(figure1_network.router("R4").primary_address, 0)
        with pytest.raises(AssertionError):
            domain.assert_tree_consistent(group)
