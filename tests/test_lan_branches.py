"""Multi-access LANs as tree branches (spec §5's hardest case).

"It is worth pointing out the distinction between subnetworks and
tree branches, although they can be one and the same."  These tests
build topologies where a single LAN carries parent and several
children simultaneously — the case the CBT-multicast optimisation
targets and the easiest place to create duplicate delivery bugs.

Topology (all routers CBT):

        CORE
          |
    ------+------- backbone LAN (a tree branch!)
    |     |     |
   RA    RB    RC
    |     |     |
   MA    MB    MC     (member LANs with hosts)
"""

import pytest

from repro import CBTDomain, group_address
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_data
from repro.topology.builder import Network
from tests.conftest import join_members


def build_backbone_lan(use_cbt_multicast=False, mode="cbt", backbone_host=None):
    net = Network()
    core = net.add_router("CORE")
    ra, rb, rc = (net.add_router(n) for n in ("RA", "RB", "RC"))
    backbone = net.add_subnet("backbone", [core, ra, rb, rc])
    if backbone_host is not None:
        net.add_host(backbone_host, backbone)
    for name, router in (("MA", ra), ("MB", rb), ("MC", rc)):
        lan = net.add_subnet(f"lan_{name}", [router])
        net.add_host(name, lan)
    core_lan = net.add_subnet("lan_core", [core])
    net.add_host("MCORE", core_lan)
    net.converge()
    domain = CBTDomain(
        net,
        timers=FAST_TIMERS,
        igmp_config=FAST_IGMP,
        mode=mode,
        use_cbt_multicast=use_cbt_multicast,
    )
    group = group_address(0)
    domain.create_group(group, cores=["CORE"])
    domain.start()
    net.run(until=3.0)
    return net, domain, group


MEMBERS = ["MA", "MB", "MC", "MCORE"]


@pytest.mark.parametrize(
    "use_cbt_multicast,mode",
    [(False, "cbt"), (True, "cbt"), (False, "native")],
    ids=["cbt-unicast", "cbt-multicast", "native"],
)
class TestBackboneLANBranch:
    def test_all_children_root_at_core_over_the_lan(self, use_cbt_multicast, mode):
        net, domain, group = build_backbone_lan(use_cbt_multicast, mode)
        join_members(net, domain, group, MEMBERS)
        domain.assert_tree_consistent(group)
        for name in ("RA", "RB", "RC"):
            parent = domain.protocol(name).tree_parent(group)
            assert parent in {i.address for i in net.router("CORE").interfaces}

    def test_downstream_sender_exactly_once(self, use_cbt_multicast, mode):
        net, domain, group = build_backbone_lan(use_cbt_multicast, mode)
        join_members(net, domain, group, MEMBERS)
        uid = send_data(net, "MA", group, count=1)[0]
        for member in MEMBERS:
            expected = 0 if member == "MA" else 1
            copies = sum(1 for d in net.host(member).delivered if d.uid == uid)
            assert copies == expected, (member, copies)

    def test_core_side_sender_exactly_once(self, use_cbt_multicast, mode):
        net, domain, group = build_backbone_lan(use_cbt_multicast, mode)
        join_members(net, domain, group, MEMBERS)
        uid = send_data(net, "MCORE", group, count=1)[0]
        for member in ("MA", "MB", "MC"):
            copies = sum(1 for d in net.host(member).delivered if d.uid == uid)
            assert copies == 1, (member, copies)

    def test_repeated_packets_stay_exact(self, use_cbt_multicast, mode):
        net, domain, group = build_backbone_lan(use_cbt_multicast, mode)
        join_members(net, domain, group, MEMBERS)
        uids = send_data(net, "MB", group, count=5)
        for uid in uids:
            for member in ("MA", "MC", "MCORE"):
                copies = sum(
                    1 for d in net.host(member).delivered if d.uid == uid
                )
                assert copies == 1


class TestCBTMulticastOptimisation:
    def test_multicast_reduces_lan_transmissions(self):
        """The §5 optimisation: one CBT multicast replaces N unicasts
        when several children share the backbone."""
        from repro.netsim.packet import PROTO_CBT

        results = {}
        for flag in (False, True):
            net, domain, group = build_backbone_lan(use_cbt_multicast=flag)
            join_members(net, domain, group, MEMBERS)
            net.trace.clear()
            send_data(net, "MCORE", group, count=4)
            results[flag] = len(
                net.trace.filter(
                    kind="tx", proto=PROTO_CBT, link_name="backbone"
                )
            )
        assert results[True] < results[False]

    def test_multicast_stats_counted(self):
        net, domain, group = build_backbone_lan(use_cbt_multicast=True)
        join_members(net, domain, group, MEMBERS)
        send_data(net, "MCORE", group, count=2)
        core_stats = domain.protocol("CORE").data_plane.stats
        assert core_stats.cbt_multicasts >= 2


class TestQuitOnSharedLAN:
    def test_one_child_quits_others_unaffected(self):
        net, domain, group = build_backbone_lan()
        join_members(net, domain, group, MEMBERS)
        domain.leave_host("MB", group)
        net.run(until=net.scheduler.now + 40.0)
        assert not domain.protocol("RB").is_on_tree(group)
        uid = send_data(net, "MA", group, count=1)[0]
        assert sum(1 for d in net.host("MC").delivered if d.uid == uid) == 1
        assert sum(1 for d in net.host("MB").delivered if d.uid == uid) == 0
