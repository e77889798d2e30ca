"""What the data plane does, pinned by equality.

Three worlds, each in CBT and in native mode, carry data through every
branch of the forwarding code: Figure 1 (a member sender, a non-member
sender on an on-tree LAN and one on an off-tree LAN, so the
local-origin, on-tree and first-on-tree branches all run, and a TTL
that runs out), a backbone LAN whose three children share the core's
interface, with the CBT-multicast optimisation on, and that backbone
with a member host on it.  Each is asserted against
the figures the data plane produced before a CBT hop forwarded from
one fan-out frame and carried its wire size (docs/PERFORMANCE.md,
"Decision record: a CBT hop is one copy and one fan-out frame"):
every ``ForwardingStats`` field summed over the routers, the links'
summed ``tx_count`` and ``tx_bytes``, and which packets each member
was delivered.  Uids are drawn from a process-wide counter, so a
delivery is recorded as its packet's position among the packets the
world sent.
"""

from dataclasses import asdict

import pytest

from repro import CBTDomain, build_figure1, group_address
from repro.core.forwarding import ForwardingStats
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_data
from repro.topology.figures import FIGURE1_MEMBERS
from tests.conftest import join_members
from tests.test_lan_branches import MEMBERS as LAN_MEMBERS, build_backbone_lan


def _figure1(mode):
    network = build_figure1()
    domain = CBTDomain(network, timers=FAST_TIMERS, igmp_config=FAST_IGMP, mode=mode)
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    network.run(until=3.0)
    join_members(network, domain, group, FIGURE1_MEMBERS[:8])
    # Members on both sides of the cores, a non-member on an on-tree LAN
    # and non-members on off-tree LANs whose D-DRs encapsulate toward a
    # core (the first on-tree router marks those packets).
    return network, domain, group, ["A", "E", "J", "B", "H", "K"], FIGURE1_MEMBERS


def _backbone_lan(mode):
    network, domain, group = build_backbone_lan(use_cbt_multicast=True, mode=mode)
    join_members(network, domain, group, LAN_MEMBERS)
    return network, domain, group, ["MCORE", "MB"], LAN_MEMBERS


def _shared_backbone(mode):
    # One LAN is a tree branch and a member LAN at once: a router that
    # hears a packet there must not deliver it there again.
    network, domain, group = build_backbone_lan(True, mode, backbone_host="MBB")
    members = LAN_MEMBERS + ["MBB"]
    join_members(network, domain, group, members)
    return network, domain, group, ["MCORE", "MB", "MBB"], members


def _observe(world, mode):
    network, domain, group, senders, members = world(mode)
    sent = []
    for sender in senders:
        sent += send_data(network, sender, group, count=2)
    sent += send_data(network, senders[0], group, count=2, ttl=3)  # runs out
    position = {uid: index for index, uid in enumerate(sent)}
    stats = ForwardingStats()
    for protocol in domain.protocols.values():
        for field, value in asdict(protocol.data_plane.stats).items():
            setattr(stats, field, getattr(stats, field) + value)
    links = network.links.values()
    delivered = {
        member: [position.get(d.uid, -1) for d in network.host(member).delivered]
        for member in members
    }
    return (
        stats,
        sum(link.tx_count for link in links),
        sum(link.tx_bytes for link in links),
        delivered,
    )


#: Every packet a Figure-1 world sends, by position; the same for the
#: shared backbone.
_ALL = list(range(14))
_ALL_SHARED = list(range(8))

#: (world, mode) -> (summed stats, tx_count, tx_bytes, member -> positions),
#: measured before the change the module docstring names.
PINNED = {
    (_figure1, "cbt"): (
        dict(
            cbt_unicasts=70, member_deliveries=100, encapsulations=14,
            nonmember_originations=6, intercepts=6, discards_ttl=4,
            discards_not_local=24,
        ),
        444, 38680,
        dict(
            A=[2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            C=_ALL,
            B=[0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13],
            D=_ALL, E2=_ALL, F=_ALL,
            E=[0, 1, 4, 5, 6, 7, 8, 9, 10, 11],
            G=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            I=[], H=[], J=[], K=[],
        ),
    ),
    (_figure1, "native"): (
        dict(
            native_forwards=32, cbt_unicasts=30, member_deliveries=100,
            encapsulations=6, nonmember_originations=6, intercepts=6,
            discards_ttl=4, discards_not_local=24,
        ),
        436, 35864,
        dict(
            A=[2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            C=_ALL,
            B=[0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13],
            D=_ALL, E2=_ALL, F=_ALL,
            E=[0, 1, 4, 5, 6, 7, 8, 9, 10, 11],
            G=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            I=[], H=[], J=[], K=[],
        ),
    ),
    (_backbone_lan, "cbt"): (
        dict(cbt_unicasts=6, cbt_multicasts=4, member_deliveries=18, encapsulations=6),
        122, 9280,
        dict(MA=[0, 1, 2, 3, 4, 5], MB=[0, 1, 4, 5], MC=[0, 1, 2, 3, 4, 5], MCORE=[2, 3]),
    ),
    (_backbone_lan, "native"): (
        dict(native_forwards=6, member_deliveries=18),
        118, 8392,
        dict(MA=[0, 1, 2, 3, 4, 5], MB=[0, 1, 4, 5], MC=[0, 1, 2, 3, 4, 5], MCORE=[2, 3]),
    ),
    (_shared_backbone, "cbt"): (
        dict(
            cbt_unicasts=6, cbt_multicasts=4, member_deliveries=32,
            encapsulations=14, discards_not_local=18,
        ),
        150, 11656,
        dict(
            MA=_ALL_SHARED, MB=[0, 1, 4, 5, 6, 7], MC=_ALL_SHARED,
            MCORE=[2, 3, 4, 5], MBB=[0, 1, 2, 3, 6, 7],
        ),
    ),
    # In native mode the backbone is a tree interface and a member LAN
    # at once: the core's native forward onto it is MBB's one copy, so
    # no member delivery follows on the same LAN.
    (_shared_backbone, "native"): (
        dict(native_forwards=6, member_deliveries=26),
        140, 10216,
        dict(
            MA=_ALL_SHARED, MB=[0, 1, 4, 5, 6, 7], MC=_ALL_SHARED,
            MCORE=[2, 3, 4, 5], MBB=[0, 1, 2, 3, 6, 7],
        ),
    ),
}


@pytest.mark.parametrize(
    "world, mode", list(PINNED), ids=[f"{w.__name__[1:]}-{m}" for w, m in PINNED]
)
def test_the_data_plane_does_what_it_did(world, mode):
    stats, tx_count, tx_bytes, delivered = PINNED[world, mode]
    expected = (ForwardingStats(**stats), tx_count, tx_bytes, delivered)
    assert _observe(world, mode) == expected
