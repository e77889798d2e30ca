"""E15 (extension) — CBT/DVMRP interoperability at the §10 boundary.

Measures what the bridge design costs: cross-cloud delivery success,
added latency relative to intra-cloud delivery, and the state each
cloud carries (the CBT side stays O(1); the DVMRP side floods as it
always does).
"""


from benchmarks.conftest import publish
from repro import CBTDomain, group_address
from repro.app import MulticastReceiver, MulticastSender
from repro.baselines.dvmrp import DVMRPDomain
from repro.harness.experiment import Experiment
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from repro.interop.bridge import MulticastBridge
from repro.topology.builder import Network

PACKETS = 10


def build_clouds(cbt_depth: int, dvmrp_depth: int):
    """Line clouds of configurable depth glued by a bridge."""
    net = Network()
    cbt_names = [f"C{i}" for i in range(cbt_depth)]
    dvmrp_names = [f"D{i}" for i in range(dvmrp_depth)]
    cbt_routers = [net.add_router(n) for n in cbt_names]
    dvmrp_routers = [net.add_router(n) for n in dvmrp_names]
    for i in range(cbt_depth - 1):
        net.add_p2p(f"c{i}", cbt_routers[i], cbt_routers[i + 1])
    for i in range(dvmrp_depth - 1):
        net.add_p2p(f"d{i}", dvmrp_routers[i], dvmrp_routers[i + 1])
    lan_ma = net.add_subnet("lan_ma", [cbt_routers[0]])
    lan_mb = net.add_subnet("lan_mb", [dvmrp_routers[-1]])
    lan_a = net.add_subnet("lan_a", [cbt_routers[-1]])
    lan_b = net.add_subnet("lan_b", [dvmrp_routers[0]])
    ma = net.add_host("MA", lan_ma)
    mb = net.add_host("MB", lan_mb)
    net.converge()
    bridge = MulticastBridge("bridge", net.scheduler)
    net.attach(bridge, lan_a)
    net.attach(bridge, lan_b)
    cbt = CBTDomain(
        net,
        timers=FAST_TIMERS,
        igmp_config=FAST_IGMP,
        cbt_routers=cbt_names,
        hosts=["MA"],
    )
    dvmrp = DVMRPDomain(
        net,
        prune_lifetime=300.0,
        igmp_config=FAST_IGMP,
        routers=dvmrp_names,
        hosts=["MB"],
    )
    group = group_address(0)
    cores = cbt.create_group(group, cores=["C0"])
    cbt.start()
    dvmrp.start()
    net.run(until=3.0)
    bridge.bridge_group(group, cores=cores)
    cbt.join_host("MA", group)
    dvmrp.join_host("MB", group)
    receiver_ma = MulticastReceiver(ma, cbt.host_agents["MA"], group)
    receiver_mb = MulticastReceiver(mb, dvmrp.host_agents["MB"], group)
    net.run(until=8.0)
    return net, cbt, dvmrp, bridge, group, receiver_ma, receiver_mb


def cross_cloud_run(cbt_depth: int, dvmrp_depth: int) -> tuple:
    net, cbt, dvmrp, bridge, group, receiver_ma, receiver_mb = build_clouds(
        cbt_depth, dvmrp_depth
    )
    sender_a = MulticastSender(net.host("MA"), group, stream_id="MA")
    sender_b = MulticastSender(net.host("MB"), group, stream_id="MB")
    sender_a.send(PACKETS)
    sender_b.send(PACKETS)
    net.run(until=net.scheduler.now + 5.0)
    stats_ab = receiver_mb.stats_for("MA")
    stats_ba = receiver_ma.stats_for("MB")
    cbt_state = sum(len(p.fib) for p in cbt.protocols.values())
    dvmrp_state = sum(len(p.entries) for p in dvmrp.protocols.values())
    return (
        f"{stats_ab.received}/{PACKETS}",
        f"{stats_ba.received}/{PACKETS}",
        round(stats_ab.mean_latency * 1000, 1),
        round(stats_ba.mean_latency * 1000, 1),
        cbt_state,
        dvmrp_state,
        stats_ab.received == PACKETS and stats_ba.received == PACKETS,
    )


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E15",
        title="CBT <-> DVMRP bridge (§10), line clouds of varying depth",
        paper_expectation=(
            "transparent interop: full delivery both ways; CBT-side "
            "state stays one entry per on-tree router while the "
            "DVMRP side accumulates per-source entries"
        ),
    )
    rows = []
    for cbt_depth, dvmrp_depth in [(2, 2), (3, 3), (5, 3), (3, 5)]:
        result = cross_cloud_run(cbt_depth, dvmrp_depth)
        rows.append((cbt_depth, dvmrp_depth) + result[:-1])
        assert result[-1], (cbt_depth, dvmrp_depth)
    exp.run_sweep(
        [
            "cbt depth",
            "dvmrp depth",
            "CBT->DVMRP",
            "DVMRP->CBT",
            "a->b ms",
            "b->a ms",
            "cbt entries",
            "dvmrp entries",
        ],
        rows,
    )
    return exp


def test_interop(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E15_interop", exp.report())
    for row in exp.result.rows:
        assert row[2] == f"{PACKETS}/{PACKETS}"
        assert row[3] == f"{PACKETS}/{PACKETS}"
