"""E10 — forwarding-mode comparison: native vs CBT mode (spec §4, §5).

The spec's "native mode" optimisation removes the CBT-header
encapsulation inside CBT-only clouds.  This bench counts per-packet
router work (forwarding operations) and bytes on the wire for the same
workload under both modes, plus the CBT-multicast LAN optimisation.

Expectation: identical delivery in both modes; native mode saves the
32-byte CBT header on every tree hop and the en/de-capsulation work.
"""


from benchmarks.conftest import publish
from repro import CBTDomain, build_figure1, group_address
from repro.harness.experiment import Experiment
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, judge_delivery, send_data
from repro.netsim.packet import PROTO_CBT, PROTO_UDP
from repro.topology.figures import FIGURE1_MEMBERS

PACKETS = 10


def run_mode(mode: str, use_cbt_multicast: bool = False) -> dict:
    net = build_figure1()
    domain = CBTDomain(
        net,
        timers=FAST_TIMERS,
        igmp_config=FAST_IGMP,
        mode=mode,
        use_cbt_multicast=use_cbt_multicast,
    )
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    net.run(until=3.0)
    start = net.scheduler.now
    for i, member in enumerate(FIGURE1_MEMBERS):
        net.scheduler.call_at(
            start + 0.05 * i,
            (lambda m: (lambda: domain.join_host(m, group)))(member),
        )
    net.run(until=start + 4.0)
    net.trace.clear()
    delivery = judge_delivery(net, group, "G", send_data(net, "G", group, count=PACKETS))
    tx_bytes = sum(
        r.datagram.size_bytes()
        for r in net.trace.transmissions()
        if r.datagram.proto in (PROTO_CBT, PROTO_UDP)
        and getattr(r.datagram.payload, "dport", 5000) == 5000
        or r.datagram.proto == PROTO_CBT
    )
    stats = [p.data_plane.stats for p in domain.protocols.values()]
    return {
        # (member, packet) pairs delivered exactly once; a duplicate or
        # a copy echoed back to G counts against it.
        "delivered": len(delivery.members) * PACKETS - len(delivery.missed + delivery.duplicated),
        "tx_bytes": tx_bytes,
        "router work": sum(s.total_router_work() for s in stats),
        "encapsulations": sum(s.encapsulations for s in stats),
        "cbt unicasts": sum(s.cbt_unicasts for s in stats),
        "cbt multicasts": sum(s.cbt_multicasts for s in stats),
        "native forwards": sum(s.native_forwards for s in stats),
    }


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E10",
        title=f"Forwarding modes, {PACKETS} packets from G on Figure 1",
        paper_expectation=(
            "identical delivery; native mode avoids the 32-byte CBT "
            "header and all en/de-capsulation work inside the cloud"
        ),
    )
    cbt = run_mode("cbt")
    cbt_mcast = run_mode("cbt", use_cbt_multicast=True)
    native = run_mode("native")
    metrics = [
        "delivered",
        "tx_bytes",
        "router work",
        "encapsulations",
        "cbt unicasts",
        "cbt multicasts",
        "native forwards",
    ]
    rows = [
        (name, cbt[name], cbt_mcast[name], native[name]) for name in metrics
    ]
    exp.run_sweep(
        ["metric", "CBT mode", "CBT + LAN mcast", "native mode"],
        rows,
    )
    exp.modes = {"cbt": cbt, "cbt_mcast": cbt_mcast, "native": native}
    return exp


def test_forwarding_modes(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E10_forwarding_modes", exp.report())
    modes = exp.modes
    expected = PACKETS * (len(FIGURE1_MEMBERS) - 1)
    for name, mode in modes.items():
        assert mode["delivered"] == expected, name
    # Native mode does zero encapsulation in a clean cloud.
    assert modes["native"]["encapsulations"] == 0
    assert modes["cbt"]["encapsulations"] > 0
    # Native mode moves fewer bytes for the same delivery.
    assert modes["native"]["tx_bytes"] < modes["cbt"]["tx_bytes"]
