"""Each layer's public primitive timed on its own.

A layer's share of a workload says how much it costs there; these say
what one operation costs with nothing else running, so a layer's floor
can be read against its in-workload share.  Each kernel is timed in
batches for about a fifth of a second and the fastest batch reported.
"""

from __future__ import annotations

import time
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Dict, Tuple

clock = time.perf_counter


def _best(batch: Callable[[], int], seconds: float = 0.2) -> float:
    """Seconds per operation of the fastest batch (``batch`` returns
    how many operations it did)."""
    batch()  # warm caches
    best = float("inf")
    deadline = clock() + seconds
    while clock() < deadline:
        t0 = clock()
        operations = batch()
        best = min(best, (clock() - t0) / operations)
    return best


def scheduler_churn() -> Tuple[float, str]:
    """``Scheduler.call_later`` + cancel 3 of 4 + drain, per timer."""
    from repro.netsim.engine import Scheduler

    count = 20_000

    def batch() -> int:
        scheduler = Scheduler()
        noop = lambda: None  # noqa: E731
        timers = [
            scheduler.call_later(float(i % 97) + 1.0, noop) for i in range(count)
        ]
        for index, timer in enumerate(timers):
            if index % 4:
                timer.cancel()
        scheduler.run_until_idle()
        return count

    return _best(batch) * 1e9, "ns/timer"


def route_lookup() -> Tuple[float, str]:
    """``RoutingTable.lookup`` over 4096 /24 routes, per lookup."""
    from repro.routing.table import Route, RoutingTable
    from repro.topology.builder import Network

    network = Network(trace_enabled=False)
    router = network.add_router("bench")
    network.add_subnet("lan", [router])
    interface = router.interfaces[0]
    base = int(IPv4Address("10.0.0.0"))
    table = RoutingTable()
    for index in range(4096):
        table.install(
            Route(IPv4Network((base + (index << 8), 24)), interface, None, 1.0)
        )
    targets = [
        IPv4Address(base + 7 + ((index * 37 % 4096) << 8)) for index in range(256)
    ]

    def batch() -> int:
        for target in targets:
            table.lookup(target)
        return len(targets)

    return _best(batch) * 1e9, "ns/lookup"


def spf_recompute() -> Tuple[float, str]:
    """``LinkStateRouting.recompute`` with every table materialised, n=120."""
    from repro.topology.generators import waxman_network

    routing = waxman_network(120, seed=3).routing

    def batch() -> int:
        routing.recompute()
        for router in routing.routers:
            len(router.table)  # force the deferred SPF
        return 1

    return _best(batch) * 1e3, "ms/recompute"


def codec_roundtrip() -> Tuple[float, str]:
    """Control, data-header and IGMP encode + decode, per round trip."""
    from repro.core.constants import JoinSubcode, MessageType
    from repro.core.messages import (
        CBTControlMessage,
        CBTDataPacket,
        decode_control,
        decode_data_header,
    )
    from repro.igmp.messages import CoreReport, decode_igmp

    group = IPv4Address("239.1.2.3")
    cores = tuple(IPv4Address(f"10.0.{index}.1") for index in range(3))
    origin = IPv4Address("10.1.0.1")
    join = CBTControlMessage(
        msg_type=MessageType.JOIN_REQUEST,
        code=int(JoinSubcode.ACTIVE_JOIN),
        group=group,
        origin=origin,
        target_core=cores[0],
        cores=cores,
    )
    data = CBTDataPacket(
        group=group, core=cores[0], origin=origin, inner=b"x" * 64, ip_ttl=32
    )
    report = CoreReport(group=group, cores=cores)

    def batch() -> int:
        for _ in range(100):
            decode_control(join.encode())
            decode_data_header(data.encode())
            decode_igmp(report.encode())
        return 300

    return _best(batch) * 1e6, "us/roundtrip"


def registry_snapshot() -> Tuple[float, str]:
    """``MetricsRegistry.snapshot`` of a settled 120-router domain."""
    from repro.core.bootstrap import CBTDomain
    from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
    from repro.topology.generators import waxman_network

    network = waxman_network(120, seed=3)
    CBTDomain(network, timers=FAST_TIMERS, igmp_config=FAST_IGMP).start()
    network.run(until=1.0)
    registry = network.telemetry.registry

    def batch() -> int:
        registry.snapshot()
        return 1

    return _best(batch) * 1e3, "ms/snapshot"


#: Layer -> its kernel.
KERNELS: Dict[str, Callable[[], Tuple[float, str]]] = {
    "netsim.engine": scheduler_churn,
    "routing.table": route_lookup,
    "routing.linkstate": spf_recompute,
    "core.messages+igmp": codec_roundtrip,
    "telemetry": registry_snapshot,
}


def run_all() -> Dict[str, Tuple[float, str]]:
    return {layer: kernel() for layer, kernel in KERNELS.items()}
