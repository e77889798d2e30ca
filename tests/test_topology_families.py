"""Protocol soak across topology families.

The Figure-1 and Waxman tests dominate the suite; this file runs the
full join/data/leave cycle on every other generator family to catch
topology-shape-specific bugs (grids have massive equal-cost ambiguity,
BA graphs have hubs, transit-stub has hierarchy, stars have a single
transit point, lines have maximum depth).
"""

import pytest

from repro.harness.scenarios import build_cbt_group, pick_members, send_data
from repro.topology.generators import (
    barabasi_albert_network,
    grid_network,
    line_network,
    realise,
    star_graph,
    transit_stub_network,
)

FAMILIES = [
    ("grid", lambda: grid_network(4, 4), "N0"),
    ("line", lambda: line_network(12), "N0"),
    ("star", lambda: realise(star_graph(10)), "N0"),
    ("ba", lambda: barabasi_albert_network(16, m=2, seed=4), "N0"),
    (
        "transit-stub",
        lambda: transit_stub_network(
            transit_n=3, stubs_per_transit=2, stub_size=3, seed=2
        ),
        "T0",
    ),
]


@pytest.mark.parametrize(
    "name,builder,core", FAMILIES, ids=[f[0] for f in FAMILIES]
)
class TestFamilySoak:
    def test_join_data_leave_cycle(self, name, builder, core):
        net = builder()
        members = pick_members(net, min(5, len(net.hosts)), seed=3)
        domain, group = build_cbt_group(net, members, cores=[core])
        domain.assert_tree_consistent(group)

        # Every member hears every sender exactly once.
        for sender in members[:2]:
            uid = send_data(net, sender, group, count=1)[0]
            for member in members:
                expected = 0 if member == sender else 1
                copies = sum(
                    1 for d in net.host(member).delivered if d.uid == uid
                )
                assert copies == expected, (name, sender, member, copies)

        # Half the members leave; the rest keep working.
        leavers = members[: len(members) // 2]
        stayers = members[len(members) // 2 :]
        for member in leavers:
            domain.leave_host(member, group)
        net.run(until=net.scheduler.now + 45.0)
        domain.assert_tree_consistent(group)
        if len(stayers) >= 2:
            uid = send_data(net, stayers[0], group, count=1)[0]
            for member in stayers[1:]:
                copies = sum(
                    1 for d in net.host(member).delivered if d.uid == uid
                )
                assert copies == 1, (name, member)
            for member in leavers:
                copies = sum(
                    1 for d in net.host(member).delivered if d.uid == uid
                )
                assert copies == 0, (name, member)

    def test_audit_clean_after_cycle(self, name, builder, core):
        from repro.core.audit import audit_domain, errors

        net = builder()
        members = pick_members(net, min(4, len(net.hosts)), seed=5)
        domain, group = build_cbt_group(net, members, cores=[core])
        domain.leave_host(members[0], group)
        net.run(until=net.scheduler.now + 45.0)
        findings = audit_domain(domain)
        assert errors(findings) == [], (name, [str(f) for f in findings])
