"""When a silent LAN neighbour stops being live, and when it is dropped.

Two routers share one LAN; RB crashes (``fail_router``) half an
interval after one of its beacons.  On the survivor RA, every leg reads
RB as live while ``now - heard <= hold``, where ``heard`` is when RB's
last beacon reached RA.  The legs differ in when they drop the record:
CBT at the first HELLO tick past the hold, HPIM-DM at the first hello
tick past the hold (with exactly one ``_neighbour_down``), DVMRP at the
first read past the hold.  After that, DVMRP no longer counts RB as a
downstream router, so it stops forwarding onto the LAN.

The LAN and the source LAN have a delay of a quarter second and every
leg's beacon interval and hold are sums of binary fractions, so
``heard + hold`` is an instant the scheduler reaches exactly.
"""

import pytest

from repro import CBTDomain, group_address
from repro.baselines import dvmrp, hpimdm
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_one
from repro.telemetry import payload_label
from repro.topology.builder import Network

DELAY = 0.25


def _cbt_held(protocol, vif):
    return set(protocol.neighbours.on_vif(vif))


def _dense_held(protocol, vif):
    return set(dict(protocol.neighbours.items()).get(vif, {}))


#: leg -> (domain on a network, beacon label, beacon interval, hold,
#: the addresses the leg's neighbour store holds on a vif).
LEGS = {
    "cbt": (
        lambda net: CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP),
        "HELLO",
        FAST_TIMERS.hello_interval,
        FAST_TIMERS.hello_hold,
        _cbt_held,
    ),
    "dvmrp": (
        lambda net: dvmrp.DVMRPDomain(net, igmp_config=FAST_IGMP),
        "Probe",
        dvmrp.PROBE_INTERVAL,
        dvmrp.NEIGHBOUR_HOLD,
        _dense_held,
    ),
    "hpimdm": (
        lambda net: hpimdm.HPIMDMDomain(net, igmp_config=FAST_IGMP),
        "HpimHello",
        hpimdm.HELLO_INTERVAL,
        hpimdm.NEIGHBOUR_HOLD,
        _dense_held,
    ),
}


def _beacons(net, router, label):
    return [
        record.time
        for record in net.trace.transmissions()
        if record.node_name == router
        and record.link_name == "lan"
        and payload_label(record.datagram) == label
    ]


@pytest.mark.parametrize("leg", sorted(LEGS))
def test_a_crashed_lan_neighbour_is_live_for_one_hold_then_dropped(leg):
    make, label, interval, hold, held = LEGS[leg]
    net = Network()
    ra, rb = net.add_router("RA"), net.add_router("RB")
    lan = net.add_subnet("lan", [ra, rb], delay=DELAY)
    net.add_host("S", net.add_subnet("src_lan", [ra], delay=DELAY))
    net.converge()
    domain = make(net)
    domain.start()
    protocol = domain.protocol("RA")
    vif = ra.interface_on(lan.network).vif
    rb_address = rb.interface_on(lan.network).address

    # RB beacons at tick 4 (time 4 * interval), then crashes.
    net.run(until=4.5 * interval)
    net.fail_router("RB")
    heard = 4 * interval + DELAY
    assert _beacons(net, "RB", label)[-1] == pytest.approx(4 * interval)
    assert held(protocol, vif) == {rb_address}

    if leg == "cbt":
        # Ticks 5, 6 and 7 are within the hold (7 * 6 - 24.25 = 17.75
        # <= 18): RA keeps HELLOing the LAN for its live neighbour.
        # Tick 8 (23.75 past) drops RB; from then on the LAN gets only
        # the once-a-hold HELLO (ticks 9 and 12).
        net.run(until=8 * interval - 0.5)
        assert held(protocol, vif) == {rb_address}
        net.run(until=8 * interval + 0.1)
        assert held(protocol, vif) == set()
        net.run(until=12.5 * interval)
        assert [t for t in _beacons(net, "RA", label) if t > 4.5 * interval] == (
            pytest.approx([k * interval for k in (5, 6, 7, 9, 12)])
        )
        return

    # Data from S reaches RA at ``heard + hold`` exactly (RB still
    # live: flooded onto the LAN) and half a second later (RB silent
    # past the hold: the LAN is a leaf with no router and no member).
    group = group_address(0)
    uids = []
    for arrives in (heard + hold, heard + hold + 0.5):
        net.scheduler.call_at(arrives - DELAY, send_one, net.host("S"), group, 64, uids)
    downs = []
    neighbour_down = getattr(protocol, "_neighbour_down", None)
    if neighbour_down is not None:

        def spy(down_vif, address):
            downs.append((net.scheduler.now, down_vif, address))
            neighbour_down(down_vif, address)

        protocol._neighbour_down = spy

    net.run(until=heard + hold + 0.25)
    assert protocol.stats.data_forwards == 1
    assert held(protocol, vif) == {rb_address}
    net.run(until=heard + hold + 0.75)
    assert protocol.stats.data_forwards == 1  # RB no longer downstream
    assert len(uids) == 2
    next_tick = 8 * interval
    assert heard + hold + 0.75 < next_tick
    if leg == "dvmrp":
        # The read of the second packet dropped RB.
        assert held(protocol, vif) == set()
        net.run(until=next_tick + 0.1)
        assert held(protocol, vif) == set()
        return
    # HPIM-DM: stale but not swept until the next hello tick, which
    # flushes RB exactly once.
    assert held(protocol, vif) == {rb_address}
    assert downs == []
    net.run(until=next_tick + 0.1)
    assert held(protocol, vif) == set()
    assert downs == [(pytest.approx(next_tick), vif, rb_address)]
    net.run(until=next_tick + 3 * interval)
    assert len(downs) == 1
