"""End-to-end integration tests on random topologies.

These exercise the whole stack — IGMP, DR election, joins, data
forwarding, leaves, failures — on generated networks, checking the
global invariants the protocol must maintain:

* the tree is loop-free and parent/child views agree;
* every member receives exactly one copy of each data packet;
* state exists only on on-tree routers;
* the protocol-built tree matches the static shared-tree model.
"""

import pytest

from repro import group_address
from repro.harness.scenarios import (
    FAST_TIMERS,
    build_cbt_group,
    pick_members,
    send_data,
)
from repro.topology.generators import (
    realise,
    transit_stub_network,
    waxman_graph,
    waxman_network,
)


def exactly_one_copy(net, members, sender, group):
    uid = send_data(net, sender, group, count=1)[0]
    for member in members:
        copies = sum(1 for d in net.host(member).delivered if d.uid == uid)
        expected = 0 if member == sender else 1
        assert copies == expected, f"{member}: {copies} copies (uid {uid})"


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestRandomTopologies:
    def test_join_and_deliver(self, seed):
        net = waxman_network(20, seed=seed)
        members = pick_members(net, 6, seed=seed)
        domain, group = build_cbt_group(net, members, cores=["N0", "N5"])
        domain.assert_tree_consistent(group)
        exactly_one_copy(net, members, members[0], group)
        exactly_one_copy(net, members, members[-1], group)

    def test_protocol_tree_matches_static_model(self, seed):
        """The packet-level protocol builds a shortest-path shared
        tree: every member's hop distance to the core along the tree
        equals its unicast shortest-path distance.  (Exact edge sets
        may differ from the static model under equal-cost ties.)"""
        graph = waxman_graph(20, seed=seed)
        net = realise(graph)
        members = pick_members(net, 5, seed=seed)
        domain, group = build_cbt_group(net, members, cores=["N0"])
        parent_of = dict(domain.tree_edges(group))
        member_routers = [m.replace("H_", "") for m in members]
        for member in member_routers:
            hops = 0
            node = member
            while node != "N0":
                node = parent_of[node]
                hops += 1
                assert hops <= len(graph), "tree walk did not terminate"
            assert hops == pytest.approx(graph.dijkstra(member)[0]["N0"])

    def test_state_only_on_tree(self, seed):
        net = waxman_network(20, seed=seed)
        members = pick_members(net, 4, seed=seed)
        domain, group = build_cbt_group(net, members, cores=["N0"])
        on_tree = set(domain.on_tree_routers(group))
        for name, protocol in domain.protocols.items():
            if name not in on_tree:
                assert len(protocol.fib) == 0, name


class TestChurn:
    def test_join_leave_cycles_leave_no_residue(self):
        net = waxman_network(16, seed=7)
        members = pick_members(net, 4, seed=7)
        domain, group = build_cbt_group(net, members, cores=["N0"])
        for member in members:
            domain.leave_host(member, group)
        net.run(until=net.scheduler.now + 60.0)
        # Only the primary core may retain a (childless) root entry.
        for name, protocol in domain.protocols.items():
            entry = protocol.fib.get(group)
            if entry is None:
                continue
            assert protocol.is_primary_core_for(group), name
            assert not entry.has_children

    def test_rejoin_after_leave_works(self):
        net = waxman_network(16, seed=8)
        members = pick_members(net, 3, seed=8)
        domain, group = build_cbt_group(net, members, cores=["N0"])
        domain.leave_host(members[0], group)
        net.run(until=net.scheduler.now + 40.0)
        domain.join_host(members[0], group)
        net.run(until=net.scheduler.now + 10.0)
        domain.assert_tree_consistent(group)
        exactly_one_copy(net, members, members[1], group)

    def test_interleaved_joins_and_leaves(self):
        net = waxman_network(20, seed=9)
        members = pick_members(net, 8, seed=9)
        domain, group = build_cbt_group(net, members[:4], cores=["N0"])
        # Wave 2 joins while wave 1 partially leaves.
        now = net.scheduler.now
        for i, member in enumerate(members[4:]):
            net.scheduler.call_at(
                now + 0.1 * i,
                (lambda m: (lambda: domain.join_host(m, group)))(member),
            )
        for i, member in enumerate(members[:2]):
            net.scheduler.call_at(
                now + 0.05 + 0.1 * i,
                (lambda m: (lambda: domain.leave_host(m, group)))(member),
            )
        net.run(until=now + 60.0)
        domain.assert_tree_consistent(group)
        survivors = members[2:]
        exactly_one_copy(net, survivors, survivors[0], group)


class TestMultiGroup:
    def test_independent_groups_coexist(self):
        net = waxman_network(18, seed=10)
        all_members = pick_members(net, 8, seed=10)
        domain, g0 = build_cbt_group(net, all_members[:4], cores=["N0"])
        _, g1 = build_cbt_group(
            net,
            all_members[4:],
            cores=["N7"],
            group=group_address(1),
            domain=domain,
        )
        domain.assert_tree_consistent(g0)
        domain.assert_tree_consistent(g1)
        exactly_one_copy(net, all_members[:4], all_members[0], g0)
        exactly_one_copy(net, all_members[4:], all_members[4], g1)

    def test_shared_member_on_two_groups(self):
        net = waxman_network(18, seed=11)
        members = pick_members(net, 4, seed=11)
        domain, g0 = build_cbt_group(net, members, cores=["N0"])
        _, g1 = build_cbt_group(
            net, members, cores=["N3"], group=group_address(1), domain=domain
        )
        exactly_one_copy(net, members, members[0], g0)
        exactly_one_copy(net, members, members[0], g1)

    def test_fib_entries_scale_with_groups_not_senders(self):
        """E1's core claim at protocol level: per-router CBT state is
        one entry per group regardless of sender count."""
        net = waxman_network(14, seed=12)
        members = pick_members(net, 4, seed=12)
        domain, group = build_cbt_group(net, members, cores=["N0"])
        for sender in members:
            send_data(net, sender, group, count=2)
        for protocol in domain.protocols.values():
            assert len(protocol.fib) <= 1  # one group -> at most 1 entry


class TestTransitStub:
    def test_end_to_end_on_hierarchical_topology(self):
        net = transit_stub_network(transit_n=3, stubs_per_transit=2, stub_size=3, seed=1)
        members = pick_members(net, 6, seed=1)
        domain, group = build_cbt_group(net, members, cores=["T0"])
        domain.assert_tree_consistent(group)
        exactly_one_copy(net, members, members[0], group)


class TestFailureOnRandomTopology:
    def test_recovery_after_worst_link_failure(self):
        net = waxman_network(16, seed=13)
        members = pick_members(net, 5, seed=13)
        domain, group = build_cbt_group(net, members, cores=["N0", "N8"])
        # Fail the busiest tree link (most disruptive choice).
        edges = domain.tree_edges(group)
        assert edges
        child, parent = edges[0]
        for link_name, link in net.links.items():
            nodes_on = {i.node.name for i in link.interfaces}
            if {child, parent} <= nodes_on:
                net.fail_link(link_name)
                break
        net.run(
            until=net.scheduler.now
            + FAST_TIMERS.echo_timeout
            + FAST_TIMERS.reconnect_timeout
            + FAST_TIMERS.echo_interval * 5
        )
        domain.assert_tree_consistent(group)
        # Every member that is still connected to the core must receive.
        uid = send_data(net, members[-1], group, count=1)[0]
        reachable = 0
        for member in members[:-1]:
            reachable += sum(
                1 for d in net.host(member).delivered if d.uid == uid
            )
        assert reachable >= len(members) - 2
