"""Data-plane tests: CBT mode, native mode, loops, TTL (spec §4, §5, §7)."""

from dataclasses import asdict

import pytest

from repro import CBTDomain, build_figure1, group_address
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_data, send_one
from repro.netsim.packet import IPDatagram, PROTO_CBT, PROTO_UDP
from repro.topology.figures import FIGURE1_MEMBERS
from tests.conftest import join_members


def copies(network, host, uid):
    return sum(1 for d in network.host(host).delivered if d.uid == uid)


class TestCBTModeForwarding:
    def test_every_member_gets_exactly_one_copy(
        self, figure1_full_tree, figure1_network
    ):
        """The §5 walk-through: G's packet reaches all member subnets."""
        domain, group = figure1_full_tree
        uid = send_data(figure1_network, "G", group, count=1)[0]
        for member in FIGURE1_MEMBERS:
            expected = 0 if member == "G" else 1
            assert copies(figure1_network, member, uid) == expected, member

    def test_leaf_sender_reaches_everyone(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        uid = send_data(figure1_network, "J", group, count=1)[0]
        for member in FIGURE1_MEMBERS:
            expected = 0 if member == "J" else 1
            assert copies(figure1_network, member, uid) == expected, member

    def test_multiple_packets_no_duplication(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        uids = send_data(figure1_network, "A", group, count=5)
        for uid in uids:
            assert copies(figure1_network, "H", uid) == 1

    def test_encapsulation_used_between_routers(
        self, figure1_full_tree, figure1_network
    ):
        domain, group = figure1_full_tree
        send_data(figure1_network, "G", group, count=1)
        cbt_tx = figure1_network.trace.filter(kind="tx", proto=PROTO_CBT)
        assert cbt_tx, "no CBT-mode encapsulated transmissions seen"

    def test_member_lan_delivery_has_ttl_1(self, figure1_full_tree, figure1_network):
        """§5: decapsulated packets hit member subnets with TTL 1."""
        domain, group = figure1_full_tree
        uid = send_data(figure1_network, "G", group, count=1)[0]
        deliveries = [
            r
            for r in figure1_network.trace.filter(kind="rx")
            if r.datagram.uid == uid
            and r.node_name in ("A", "B", "H")
        ]
        assert deliveries
        assert all(r.datagram.ttl <= 1 for r in deliveries)

    def test_hosts_discard_cbt_multicasts(self, figure1_full_tree, figure1_network):
        """§5: the CBT payload type is not recognised by hosts."""
        domain, group = figure1_full_tree
        send_data(figure1_network, "G", group, count=1)
        for member in FIGURE1_MEMBERS:
            host = figure1_network.host(member)
            assert all(d.proto != PROTO_CBT for d in host.delivered)

    def test_off_tree_routers_do_no_data_work(
        self, figure1_full_tree, figure1_network
    ):
        domain, group = figure1_full_tree
        send_data(figure1_network, "G", group, count=1)
        for name in ("R5", "R6", "R11"):
            stats = domain.protocol(name).data_plane.stats
            assert stats.cbt_unicasts == 0
            assert stats.member_deliveries == 0

    def test_ttl_limits_reach(self, figure1_full_tree, figure1_network):
        """A TTL too small to cross the tree stops mid-way."""
        domain, group = figure1_full_tree
        # One TTL-3 datagram at the instant and horizon send_data uses.
        uids = []
        start = figure1_network.scheduler.now
        figure1_network.scheduler.call_at(
            start, send_one, figure1_network.host("J"), group, 3, uids
        )
        figure1_network.run(until=start + 1 * 0.01 + 2.0)
        uid = uids[0]
        # J -> R10 -> R9 -> R8 -> R4 -> ... A is 6+ router hops away.
        assert copies(figure1_network, "A", uid) == 0


class TestOnTreeBit:
    def test_on_tree_packet_from_off_tree_interface_discarded(
        self, figure1_full_tree, figure1_network
    ):
        """§7: on-tree-marked packets arriving over a non-tree
        interface are dropped immediately."""
        from repro.core.messages import CBTDataPacket
        from repro.netsim.address import IPv4Address
        from repro.netsim.packet import IPDatagram, PROTO_UDP, UDPDatagram

        domain, group = figure1_full_tree
        p5 = domain.protocol("R5")  # off-tree router
        inner = IPDatagram(
            src=figure1_network.host("B").interface.address,
            dst=group,
            proto=PROTO_UDP,
            payload=UDPDatagram(sport=1, dport=2, payload=b""),
        )
        packet = CBTDataPacket(
            group=group,
            core=IPv4Address("10.0.3.1"),
            origin=inner.src,
            inner=inner,
        ).marked_on_tree()
        r5 = figure1_network.router("R5")
        before = p5.data_plane.stats.discards_offtree
        consumed = p5.data_plane.intercept_unicast(
            r5,
            r5.interfaces[0],
            IPDatagram(
                src=inner.src,
                dst=figure1_network.router("R4").primary_address,
                proto=PROTO_CBT,
                payload=packet,
            ),
        )
        assert consumed
        assert p5.data_plane.stats.discards_offtree == before + 1

    def test_off_tree_packet_keeps_travelling_toward_core(
        self, figure1_full_tree, figure1_network
    ):
        """§7: a not-yet-on-tree packet is left alone by off-tree
        routers (it is tunnelling toward the core)."""
        from repro.core.messages import CBTDataPacket
        from repro.netsim.address import IPv4Address
        from repro.netsim.packet import IPDatagram, PROTO_UDP, UDPDatagram

        domain, group = figure1_full_tree
        p5 = domain.protocol("R5")
        inner = IPDatagram(
            src=figure1_network.host("B").interface.address,
            dst=group,
            proto=PROTO_UDP,
            payload=UDPDatagram(sport=1, dport=2, payload=b""),
        )
        packet = CBTDataPacket(
            group=group,
            core=IPv4Address("10.0.3.1"),
            origin=inner.src,
            inner=inner,
        )
        r5 = figure1_network.router("R5")
        consumed = p5.data_plane.intercept_unicast(
            r5,
            r5.interfaces[0],
            IPDatagram(
                src=inner.src,
                dst=figure1_network.router("R4").primary_address,
                proto=PROTO_CBT,
                payload=packet,
            ),
        )
        assert not consumed


class TestNonMemberSending:
    def test_off_tree_lan_sender_reaches_group(self, figure1_domain, figure1_network):
        """§5.1: the D-DR of an off-tree LAN encapsulates toward a core."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A", "H"])
        uid = send_data(figure1_network, "B", group, count=1)[0]
        assert copies(figure1_network, "A", uid) == 1
        assert copies(figure1_network, "H", uid) == 1
        # R6 is S4's D-DR and did the encapsulation.
        assert domain.protocol("R6").data_plane.stats.nonmember_originations == 1

    def test_on_tree_lan_nonmember_sender(self, figure1_domain, figure1_network):
        """A sender on a LAN whose router is already on-tree needs no
        encapsulation toward the core."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A", "H"])
        uid = send_data(figure1_network, "J", group, count=1)[0]  # S15, R10 on-tree
        assert copies(figure1_network, "A", uid) == 1
        assert copies(figure1_network, "H", uid) == 1
        assert domain.protocol("R10").data_plane.stats.nonmember_originations == 0

    def test_unknown_group_mapping_drops(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A"])
        unknown = group_address(42)  # never created with the coordinator
        send_data(figure1_network, "B", unknown, count=1)
        p6 = domain.protocol("R6")
        assert p6.data_plane.stats.discards_no_mapping >= 1


class TestRawUdpPayload:
    def test_proto17_datagram_carrying_bytes_is_not_control(
        self, figure1_domain, figure1_network
    ):
        """``IPDatagram`` allows opaque application bytes under any
        protocol number; ``_handle_udp`` used to read ``.dport`` off
        them and raise inside ``Scheduler.run()`` at the first CBT
        router that heard the datagram."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A", "H"])
        sender = figure1_network.host("A")
        to_group = IPDatagram(
            src=sender.interface.address, dst=group, proto=PROTO_UDP, payload=b"raw"
        )
        to_router = IPDatagram(
            src=sender.interface.address,
            dst=figure1_network.router("R4").primary_address,
            proto=PROTO_UDP,
            payload=b"raw",
        )
        sender.originate(to_group)
        sender.originate(to_router)
        figure1_network.run(until=figure1_network.scheduler.now + 2.0)
        assert copies(figure1_network, "H", to_group.uid) == 1
        assert copies(figure1_network, "H", to_router.uid) == 0
        assert not any(p.stats.decode_errors for p in domain.protocols.values())
        domain.assert_tree_consistent(group)


class TestNativeMode:
    @pytest.fixture
    def native_tree(self, figure1_network):
        domain = CBTDomain(
            figure1_network, timers=FAST_TIMERS, igmp_config=FAST_IGMP, mode="native"
        )
        group = group_address(0)
        domain.create_group(group, cores=["R4", "R9"])
        domain.start()
        figure1_network.run(until=3.0)
        join_members(figure1_network, domain, group, FIGURE1_MEMBERS)
        return domain, group

    def test_native_mode_delivers_exactly_once(self, native_tree, figure1_network):
        domain, group = native_tree
        uid = send_data(figure1_network, "G", group, count=1)[0]
        for member in FIGURE1_MEMBERS:
            expected = 0 if member == "G" else 1
            assert copies(figure1_network, member, uid) == expected, member

    def test_native_mode_uses_no_encapsulation_on_clean_topology(
        self, native_tree, figure1_network
    ):
        """§4: inside a CBT-only cloud, no CBT headers at all."""
        domain, group = native_tree
        figure1_network.trace.clear()
        send_data(figure1_network, "G", group, count=1)
        assert not figure1_network.trace.filter(kind="tx", proto=PROTO_CBT)

    def test_native_forward_counts(self, native_tree, figure1_network):
        domain, group = native_tree
        send_data(figure1_network, "G", group, count=1)
        total_native = sum(
            p.data_plane.stats.native_forwards for p in domain.protocols.values()
        )
        assert total_native > 0


# -- the data plane forwards from the downloaded entry (spec §3) ------------------
#
# The FIB's mutators compile the entry the data plane reads, so what a
# packet sees must not depend on whether an earlier packet flowed: each
# schedule runs twice on fresh networks, with and without a packet
# before the change, and the packet after it must be forwarded alike.


def _members_join(network, domain, group):
    join_members(network, domain, group, ["J", "B"])
    return {"A", "G", "H", "J", "B"}


def _branch_quits(network, domain, group):
    domain.leave_host("H", group)  # R10, then memberless R9, quit
    network.run(until=network.scheduler.now + 30.0)
    assert group not in domain.protocol("R10").fib
    return {"A", "G"}


def _parent_lost_and_rejoined(network, domain, group):
    r3 = domain.protocol("R3")
    network.fail_link("L_R3_R4")
    network.run(until=network.scheduler.now + 2 * FAST_TIMERS.echo_timeout)
    assert r3.events_of("parent_lost")
    network.restore_link("L_R3_R4")
    network.run(until=network.scheduler.now + 5.0)
    assert r3.tree_parent(group) is not None
    return {"A", "G", "H"}


def _second_packet(mode, multicast, change, first_packet):
    """Per-host copies and per-router stats of the packet sent after
    ``change``, plus how many downloads the change made."""
    network = build_figure1()
    domain = CBTDomain(
        network,
        timers=FAST_TIMERS,
        igmp_config=FAST_IGMP,
        mode=mode,
        use_cbt_multicast=multicast,
    )
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    network.run(until=3.0)
    join_members(network, domain, group, ["A", "G", "H"])
    if first_packet:
        uid = send_data(network, "A", group, count=1)[0]
        assert copies(network, "G", uid) == copies(network, "H", uid) == 1
    else:
        network.run(until=network.scheduler.now + 0.01 + 2.0)  # what send_data runs
    downloads = sum(p.fib.downloads for p in domain.protocols.values())
    members = change(network, domain, group)
    downloads = sum(p.fib.downloads for p in domain.protocols.values()) - downloads
    before = {n: asdict(p.data_plane.stats) for n, p in domain.protocols.items()}
    uid = send_data(network, "A", group, count=1)[0]
    stats = {
        name: {
            field: value - before[name][field]
            for field, value in asdict(protocol.data_plane.stats).items()
        }
        for name, protocol in domain.protocols.items()
    }
    received = {name: copies(network, name, uid) for name in network.hosts}
    assert received == {
        name: int(name in members and name != "A") for name in network.hosts
    }
    return received, stats, downloads


@pytest.mark.parametrize("multicast", [False, True], ids=["unicast", "cbt_multicast"])
@pytest.mark.parametrize("mode", ["cbt", "native"])
@pytest.mark.parametrize(
    "change", [_members_join, _branch_quits, _parent_lost_and_rejoined]
)
def test_fib_change_between_two_packets_is_seen_by_the_second(mode, multicast, change):
    seen = _second_packet(mode, multicast, change, first_packet=True)
    scratch = _second_packet(mode, multicast, change, first_packet=False)
    assert seen == scratch
    assert seen[2] > 0  # the change went through the mutators
    assert sum(s["member_deliveries"] for s in seen[1].values()) == sum(seen[0].values())
