"""Tests for tunnel configuration and ranked backups (spec §5.2)."""

import pytest

from repro.core.tunnels import TunnelEntry, TunnelTable
from repro.netsim.address import IPv4Address
from repro.topology.builder import Network

CORE_A = IPv4Address("128.16.8.117")
CORE_B = IPv4Address("128.96.41.1")


def router_with_interfaces(count=5):
    net = Network()
    r = net.add_router("r")
    for i in range(count):
        net.add_subnet(f"s{i}", [r])
    return net, r


def spec_example_table():
    """The configuration table printed in §5.2 of the spec."""
    table = TunnelTable()
    table.configure(TunnelEntry(vif=0, kind="phys", mode="native"))
    table.configure(
        TunnelEntry(vif=1, kind="tunnel", mode="cbt", remote_address=CORE_A)
    )
    table.configure(TunnelEntry(vif=2, kind="phys", mode="native"))
    table.configure(
        TunnelEntry(
            vif=3, kind="tunnel", mode="cbt", remote_address=IPv4Address("128.16.6.8")
        )
    )
    table.configure(
        TunnelEntry(vif=4, kind="tunnel", mode="cbt", remote_address=CORE_B)
    )
    # core backup-intfs rows: A -> #5, #2 (vifs 4, 1); B -> #3, #5 (2, 4).
    table.rank(CORE_A, [4, 1])
    table.rank(CORE_B, [2, 4])
    return table


class TestTunnelEntry:
    def test_tunnel_requires_remote(self):
        with pytest.raises(ValueError):
            TunnelEntry(vif=0, kind="tunnel", mode="cbt")

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            TunnelEntry(vif=0, kind="wireless", mode="cbt")

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            TunnelEntry(vif=0, kind="phys", mode="magic")


class TestTunnelTable:
    def test_entries_sorted_by_vif(self):
        table = spec_example_table()
        assert [e.vif for e in table.entries()] == [0, 1, 2, 3, 4]

    def test_rank_requires_configured_vifs(self):
        table = TunnelTable()
        with pytest.raises(ValueError):
            table.rank(CORE_A, [7])

    def test_resolve_picks_highest_ranked_available(self):
        net, router = router_with_interfaces()
        table = spec_example_table()
        entry = table.resolve(CORE_A, router.interfaces)
        assert entry is not None and entry.vif == 4

    def test_resolve_skips_down_interfaces(self):
        net, router = router_with_interfaces()
        table = spec_example_table()
        router.interfaces[4].up = False
        entry = table.resolve(CORE_A, router.interfaces)
        assert entry is not None and entry.vif == 1

    def test_resolve_skips_down_links(self):
        net, router = router_with_interfaces()
        table = spec_example_table()
        router.interfaces[4].link.set_up(False)
        entry = table.resolve(CORE_A, router.interfaces)
        assert entry is not None and entry.vif == 1

    def test_resolve_none_when_all_down(self):
        net, router = router_with_interfaces()
        table = spec_example_table()
        router.interfaces[4].up = False
        router.interfaces[1].up = False
        assert table.resolve(CORE_A, router.interfaces) is None

    def test_backup_rotates_past_failed_vif(self):
        """§5.2's worked example: if tunnel #2 (vif 1) is down for core
        A, the table suggests #5 (vif 4); if that is also down, wrap
        back to #2."""
        net, router = router_with_interfaces()
        table = spec_example_table()
        backup = table.backup_for(CORE_A, failed_vif=4, interfaces=router.interfaces)
        assert backup is not None and backup.vif == 1

    def test_backup_for_unranked_vif_uses_full_ranking(self):
        net, router = router_with_interfaces()
        table = spec_example_table()
        backup = table.backup_for(CORE_A, failed_vif=0, interfaces=router.interfaces)
        assert backup is not None and backup.vif == 4

    def test_ranking_readback(self):
        table = spec_example_table()
        assert table.ranking(CORE_A) == [4, 1]
        assert table.ranking(IPv4Address("203.0.113.1")) == []
