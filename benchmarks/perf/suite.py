"""The perf-regression benchmark suite.

Every benchmark is a function ``(quick: bool) -> Dict[str, Metric]``
registered in :data:`BENCHMARKS`.  A metric is a plain dict::

    {"value": 31250.0, "unit": "events/s", "higher_is_better": True}

Artifacts are written as ``BENCH_<name>.json`` under the (gitignored)
``bench-artifacts/`` directory; committed baselines live in
``benchmarks/baselines/``.  Quick runs measure a subset of sizes;
metrics a run did not measure are preserved from the existing artifact
so the full-run baselines (e.g. the largest scale-sweep size) survive
quick gate runs.

Regressions: only drift-immune quantities can fail the gate, and each
kind is held to what it can promise.  An *exact* metric — a
deterministic sim-time count (event totals, search-state counts,
control messages, sim-second recovery latencies) — must equal the
stored baseline: any difference, up or down, zero included, means
simulated behaviour changed.  A *gated* paired ratio measured
back-to-back on the same host (indexed-vs-linear lookup, telemetry
on-vs-off) regresses when it is more than :data:`REGRESSION_FACTOR`
times worse than the baseline; the factor is deliberately wide (3x) so
it trips on real algorithmic regressions, not machine noise.  Raw
wall-clock throughput metrics are recorded for trajectory reading but
never fail the gate: CI runners and shared hosts drift far more than
3x across hardware generations, and the parallel CI layer (``repro
ci``) runs benchmarks concurrently with other work.  See
docs/PERFORMANCE.md.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Committed baseline artifacts (the cross-PR trajectory).
BASELINE_DIR = os.path.join(REPO_ROOT, "benchmarks", "baselines")

#: Default output directory for fresh artifacts — gitignored, so local
#: and CI runs never dirty the working tree.
DEFAULT_OUTPUT_DIR = os.path.join(REPO_ROOT, "bench-artifacts")

REGRESSION_FACTOR = 3.0

Metric = Dict[str, object]


def _metric(
    value: float,
    unit: str,
    higher_is_better: bool = True,
    gated: bool = False,
    exact: bool = False,
) -> Metric:
    """``exact=True`` for deterministic sim-time counts (compared for
    equality), ``gated=True`` for same-host paired ratios (held to the
    3x band); everything else is informational (docs/PERFORMANCE.md)."""
    return {
        "value": round(float(value), 3),
        "unit": unit,
        "higher_is_better": higher_is_better,
        "gated": gated or exact,
        "exact": exact,
    }


def _time_ops(fn: Callable[[], object], min_seconds: float = 0.2) -> float:
    """Run ``fn`` repeatedly for at least ``min_seconds``; returns ops/s."""
    # Warm-up (fills caches, compiles bytecode paths).
    fn()
    count = 0
    start = time.perf_counter()
    deadline = start + min_seconds
    while True:
        fn()
        count += 1
        now = time.perf_counter()
        if now >= deadline:
            return count / (now - start)


# -- benchmarks -------------------------------------------------------------


def bench_route_lookup(quick: bool) -> Dict[str, Metric]:
    """Indexed + memoized RoutingTable.lookup vs the naive linear scan."""
    from repro.netsim.address import IPv4Address, IPv4Network
    from repro.routing.table import Route, RoutingTable
    from repro.topology.builder import Network

    net = Network(trace_enabled=False)
    router = net.add_router("bench")
    net.add_subnet("lan", [router])
    iface = router.interfaces[0]

    n_routes = 1024 if quick else 4096
    table = RoutingTable()
    for i in range(n_routes):
        prefix = IPv4Network((int(IPv4Address("10.0.0.0")) + (i << 8), 24))
        table.install(Route(prefix, iface, None, 1.0))
    targets = [
        IPv4Address(int(IPv4Address("10.0.0.7")) + ((i * 37 % n_routes) << 8))
        for i in range(256)
    ]

    def indexed() -> None:
        for t in targets:
            table.lookup(t)

    def linear() -> None:
        for t in targets:
            table.lookup_linear(t)

    per_call = len(targets)
    indexed_ops = _time_ops(indexed) * per_call
    linear_ops = _time_ops(linear, min_seconds=0.1) * per_call
    return {
        f"indexed_lookups_per_sec_n{n_routes}": _metric(
            indexed_ops, "lookups/s"
        ),
        f"linear_lookups_per_sec_n{n_routes}": _metric(
            linear_ops, "lookups/s"
        ),
        # Paired ratio measured back to back on the same host: machine
        # drift cancels, so this is gated while the raw rates are not.
        f"indexed_vs_linear_ratio_n{n_routes}": _metric(
            indexed_ops / linear_ops, "x", gated=True
        ),
    }


def bench_recompute(quick: bool) -> Dict[str, Metric]:
    """Full SPF reconvergence (every router's table materialised)."""
    from repro.topology.generators import waxman_network

    size = 60 if quick else 120
    net = waxman_network(size, seed=3)
    routing = net.routing

    def full_recompute() -> None:
        routing.recompute()
        for router in routing.routers:
            len(router.table)  # force deferred SPF

    return {
        f"full_recomputes_per_sec_n{size}": _metric(
            _time_ops(full_recompute), "recomputes/s"
        )
    }


def bench_scheduler(quick: bool) -> Dict[str, Metric]:
    """Timer churn: schedule + cancel storms (keepalive-style load)."""
    from repro.netsim.engine import Scheduler

    n = 20_000 if quick else 50_000

    def churn() -> None:
        sched = Scheduler()
        noop = lambda: None  # noqa: E731
        timers = [sched.call_later(float(i % 97) + 1.0, noop) for i in range(n)]
        # Delays of 1-97 s park every timer in the wheel: cancelling
        # 75% is a flag each, and the flush drops them on the drain.
        for i, timer in enumerate(timers):
            if i % 4:
                timer.cancel()
        sched.run_until_idle()

    def churn_args() -> None:
        # The same storm scheduled the way the protocol code does it:
        # a plain callable plus its arguments riding on the event.
        sched = Scheduler()
        noop = lambda _i: None  # noqa: E731
        timers = [sched.call_later(float(i % 97) + 1.0, noop, i) for i in range(n)]
        for i, timer in enumerate(timers):
            if i % 4:
                timer.cancel()
        sched.run_until_idle()

    return {
        f"churn_timers_per_sec_n{n}": _metric(_time_ops(churn) * n, "timers/s"),
        f"churn_timers_with_args_per_sec_n{n}": _metric(
            _time_ops(churn_args) * n, "timers/s"
        ),
    }


def bench_codec(quick: bool) -> Dict[str, Metric]:
    """Wire-format encode/decode round-trips (spec §8 layouts)."""
    from repro.core.constants import JoinSubcode, MessageType
    from repro.core.messages import (
        CBTControlMessage,
        CBTDataPacket,
        decode_control,
        decode_data_header,
    )
    from repro.igmp.messages import CoreReport, decode_igmp
    from repro.netsim.address import IPv4Address

    group = IPv4Address("239.1.2.3")
    cores = (
        IPv4Address("10.0.0.1"),
        IPv4Address("10.0.1.1"),
        IPv4Address("10.0.2.1"),
    )
    join = CBTControlMessage(
        msg_type=MessageType.JOIN_REQUEST,
        code=int(JoinSubcode.ACTIVE_JOIN),
        group=group,
        origin=IPv4Address("10.1.0.1"),
        target_core=cores[0],
        cores=cores,
    )
    data = CBTDataPacket(
        group=group, core=cores[0], origin=IPv4Address("10.1.0.1"),
        inner=b"x" * 512, ip_ttl=32,
    )
    report = CoreReport(group=group, cores=cores)

    def roundtrips() -> None:
        decode_control(join.encode())
        decode_data_header(data.encode())
        decode_igmp(report.encode())

    return {
        "codec_roundtrips_per_sec": _metric(
            _time_ops(roundtrips) * 3, "roundtrips/s"
        )
    }


def bench_records(quick: bool) -> Dict[str, Metric]:
    """Per-packet records: what building the two keepalives and copying
    a data packet for its next hop costs, each against the frozen
    dataclasses the tuple records replaced (``tests/reference_records``)
    built the way the code built them then."""
    from repro.core.constants import CBT_PORT, MessageType
    from repro.core.messages import CBTControlMessage, CBTDataPacket
    from repro.igmp.messages import MembershipQuery
    from repro.netsim.address import ALL_CBT_ROUTERS, ALL_SYSTEMS, IPv4Address
    from repro.netsim.packet import (
        PROTO_CBT,
        PROTO_IGMP,
        PROTO_UDP,
        IPDatagram,
        UDPDatagram,
    )
    from tests import reference_records as was

    here, there = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
    any_group, group = IPv4Address("0.0.0.0"), IPv4Address("239.0.0.1")

    def hello() -> None:  # CBTProtocol._send_hello
        message = CBTControlMessage(MessageType.HELLO, 0, any_group, here, cores=())
        IPDatagram(
            here, ALL_CBT_ROUTERS, PROTO_UDP, UDPDatagram(CBT_PORT, CBT_PORT, message), 1
        )

    def hello_was() -> None:
        was.make_udp(
            src=here,
            dst=ALL_CBT_ROUTERS,
            sport=CBT_PORT,
            dport=CBT_PORT,
            payload=was.CBTControlMessage(
                msg_type=MessageType.HELLO, code=0, group=any_group, origin=here, cores=()
            ),
            ttl=1,
        )

    def query() -> None:  # IGMPRouterAgent._send_query
        IPDatagram(here, ALL_SYSTEMS, PROTO_IGMP, MembershipQuery(None, 3.0), 1)

    def query_was() -> None:
        was.IPDatagram(
            src=here,
            dst=ALL_SYSTEMS,
            proto=PROTO_IGMP,
            payload=was.MembershipQuery(group=None, max_response_time=3.0),
            ttl=1,
        )

    packet = CBTDataPacket(group, there, here, b"x" * 64, ip_ttl=32)
    packet_was = was.CBTDataPacket(group, there, here, b"x" * 64, ip_ttl=32)

    def hop_copy() -> None:  # DataPlane._receive_cbt + _send_cbt
        IPDatagram(here, there, PROTO_CBT, packet.decremented())

    def hop_copy_was() -> None:
        was.IPDatagram(
            src=here, dst=there, proto=PROTO_CBT, payload=packet_was.decremented()
        )

    pairs = {
        "hello_build": (hello, hello_was),
        "query_build": (query, query_was),
        "hop_copy": (hop_copy, hop_copy_was),
    }

    def per_call_ns(build: Callable[[], None]) -> float:
        def burst() -> None:  # amortises _time_ops' clock read per call
            for _ in range(200):
                build()

        return 1e9 / (_time_ops(burst, min_seconds=0.1) * 200)

    metrics: Dict[str, Metric] = {}
    for name, (now, before) in pairs.items():
        now_ns, before_ns = per_call_ns(now), per_call_ns(before)
        metrics[f"{name}_ns"] = _metric(now_ns, "ns", higher_is_better=False)
        # Paired, back to back on one host: drift cancels, so gated.
        metrics[f"{name}_vs_dataclass_ratio"] = _metric(
            now_ns / before_ns, "x", higher_is_better=False, gated=True
        )
    return metrics


def bench_scale(quick: bool) -> Dict[str, Metric]:
    """E14 scale sweep: whole-scenario simulator throughput."""
    from benchmarks.bench_scale import scale_run

    sizes = (25, 50, 100) if quick else (25, 50, 100, 200, 1000, 10000)
    metrics: Dict[str, Metric] = {}
    for size in sizes:
        t0 = time.perf_counter()
        row = scale_run(size)
        wall = time.perf_counter() - t0
        metrics[f"sim_events_n{size}"] = _metric(
            row[5], "events", higher_is_better=False, exact=True
        )
        metrics[f"wall_seconds_n{size}"] = _metric(
            wall, "s", higher_is_better=False
        )
    return metrics


def bench_scale_smoke(quick: bool) -> Dict[str, Metric]:
    """n=1000 scale smoke: the bulk fast paths (timer wheel,
    on-demand reverse-SPF routing, sparse Waxman generation) must keep
    a whole-scenario n=1000 run inside the gated event budget.  Runs
    the single cell in quick mode too, so every CI tier that benches
    also exercises the bulk path."""
    import gc

    from benchmarks.bench_scale import scale_run

    gc.collect()
    tracked_before = len(gc.get_objects())
    collections_before = sum(gen["collections"] for gen in gc.get_stats())
    t0 = time.perf_counter()
    row = scale_run(1000)
    wall = time.perf_counter() - t0
    # Informational: how much the cell leaves resident (objects tracked
    # when the run returns, garbage included) and how many collections
    # ran while it did.  The cell closes its network and runs paused
    # from build to close, so both read next to nothing; a network
    # that stopped freeing itself would read ~360,000 / ~780 here
    # (docs/PERFORMANCE.md, "a network closes").
    tracked = len(gc.get_objects()) - tracked_before
    collections = sum(gen["collections"] for gen in gc.get_stats())
    return {
        "sim_events_n1000": _metric(
            row[5], "events", higher_is_better=False, exact=True
        ),
        "wall_seconds_n1000": _metric(wall, "s", higher_is_better=False),
        "tracked_objects_n1000": _metric(
            tracked, "objects", higher_is_better=False
        ),
        "gc_collections_n1000": _metric(
            collections - collections_before, "collections", higher_is_better=False
        ),
    }


def bench_chaos(quick: bool) -> Dict[str, Metric]:
    """Chaos smoke campaign: recovery cost under deterministic faults.

    Doubles as the CI wiring for ``repro chaos --quick``: the benchmark
    raises (failing the suite) if any campaign cell fails to recover or
    trips the invariant auditor.
    """
    from repro.chaos import run_campaign

    topologies = ("figure1",) if quick else ("figure1", "grid9")
    t0 = time.perf_counter()
    campaign = run_campaign(quick=quick, topologies=topologies)
    wall = time.perf_counter() - t0
    failures = campaign.failures()
    if failures:
        raise AssertionError(
            "chaos campaign failed: "
            + "; ".join(
                f"{r.topology}/{r.scenario} seed={r.seed} {r.findings()}"
                for r in failures
            )
        )
    cells = campaign.results
    tag = "quick" if quick else "full"
    return {
        f"cells_per_sec_{tag}": _metric(len(cells) / wall, "cells/s"),
        f"max_recovery_{tag}": _metric(
            max(r.recovery_time for r in cells),
            "sim s",
            higher_is_better=False,
            exact=True,
        ),
        f"control_msgs_per_cell_{tag}": _metric(
            sum(r.control_cost for r in cells) / len(cells),
            "msgs",
            higher_is_better=False,
            exact=True,
        ),
    }


def bench_explore(quick: bool) -> Dict[str, Metric]:
    """Systematic exploration smoke: bounded joins-race search.

    Doubles as the CI wiring for ``repro explore --smoke``: the
    benchmark raises (failing the suite) if the exploration finds a
    violating schedule or fails to exhaust its bounded space.
    """
    from repro.explore.engine import explore
    from repro.explore.scenarios import get_scenario, scenario_options

    scenario = get_scenario("joins-race")
    options = scenario_options(scenario, max_decisions=4 if quick else 5)
    t0 = time.perf_counter()
    result = explore(scenario, options)
    wall = time.perf_counter() - t0
    if result.counterexample is not None:
        raise AssertionError(
            "exploration found a violating schedule: "
            + result.counterexample.summary()
        )
    if not result.exhausted:
        raise AssertionError("exploration did not exhaust its bounded space")
    tag = "quick" if quick else "full"
    return {
        f"runs_per_sec_{tag}": _metric(result.stats.runs / wall, "runs/s"),
        f"states_visited_{tag}": _metric(
            result.stats.states_visited, "states", exact=True
        ),
        f"states_pruned_{tag}": _metric(
            result.stats.states_pruned, "states", exact=True
        ),
    }


def bench_telemetry(quick: bool) -> Dict[str, Metric]:
    """Registry read cost: pattern totals on an n=1000-sized registry,
    and snapshot cost and instrument count on the registry a Figure-1
    join scenario populates.

    Instrumentation cost on the event path is not timed here: it is
    held in call and object counts by ``tests/test_alloc_budget.py``
    and per layer by ``benchmarks/e2e`` (docs/PERFORMANCE.md, "Decision
    record: telemetry has one mode").
    """
    from repro.core.bootstrap import CBTDomain
    from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
    from repro.netsim.address import group_address
    from repro.topology.figures import build_figure1

    net = build_figure1(trace_enabled=False)
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    net.run(until=3.0)
    start = net.scheduler.now
    for index, member in enumerate(["A", "B", "G", "H"]):
        net.scheduler.call_at(start + 0.05 * index, domain.join_host, member, group)
    net.run(until=start + 8.0)

    registry = net.telemetry.registry
    snapshot_per_sec = _time_ops(registry.snapshot, min_seconds=0.1)
    instruments = len(registry.snapshot())
    return {
        **_pattern_total_metrics(),
        "snapshots_per_sec": _metric(snapshot_per_sec, "snapshots/s"),
        "snapshot_instruments": _metric(
            instruments, "instruments", exact=True
        ),
    }


def _pattern_total_metrics() -> Dict[str, Metric]:
    """Mid-wildcard ``total()`` on a registry the size of an n=1000
    domain's (~50k instruments), against the linear ``fnmatchcase``
    scan written out here — the registry twin of
    ``indexed_vs_linear_ratio_n4096``."""
    from fnmatch import fnmatchcase

    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    kinds = [f"{way}.{kind}" for way in ("tx", "rx") for kind in range(16)]
    for router in range(1000):
        for kind in kinds:
            registry.counter(f"cbt.router.N{router}.{kind}").inc(router)
    stats = ("attempts", "tx_packets", "tx_bytes", "fanout", "rx_packets", "queued_time")
    for link in range(3000):
        for stat in stats:
            registry.gauge(f"netsim.link.L{link}.{stat}").set(link)
    patterns = ["cbt.router.*.tx.3", "cbt.router.*.rx.12", "netsim.link.*.attempts"]
    counters, gauges = registry._counters, registry._gauges

    def indexed() -> List[float]:
        return [registry.total(pattern) for pattern in patterns]

    def linear() -> List[float]:
        return [
            sum(c.value for n, c in counters.items() if fnmatchcase(n, pattern))
            + sum(g.read() for n, g in gauges.items() if fnmatchcase(n, pattern))
            for pattern in patterns
        ]

    if indexed() != linear():
        raise AssertionError("indexed total() disagrees with the linear scan")
    per_call = len(patterns)
    indexed_ops = _time_ops(indexed, min_seconds=0.1) * per_call
    linear_ops = _time_ops(linear, min_seconds=0.1) * per_call
    return {
        "pattern_totals_per_sec": _metric(indexed_ops, "totals/s"),
        "pattern_total_instruments": _metric(
            len(counters) + len(gauges), "instruments", exact=True
        ),
        # Paired, back to back on one host: drift cancels, so gated.
        "pattern_total_indexed_vs_linear_ratio": _metric(
            indexed_ops / linear_ops, "x", gated=True
        ),
    }


def bench_workloads(quick: bool) -> Dict[str, Metric]:
    """Production workload cells: flash crowd + churn processes.

    Doubles as the CI wiring for ``repro workload``: the benchmark
    raises (failing the suite) if the flash-crowd cell misses an
    exactly-once delivery, leaves the tree undrained, or any cell
    trips the auditor or a snapshot check.  Gated metrics are
    drift-immune only: deterministic sim-event counts, pair counts,
    and the continuity ratio.
    """
    from repro.workloads.cell import run_churn_cell, run_flash_crowd_cell

    t0 = time.perf_counter()
    flash = run_flash_crowd_cell(topology="bulk1000", seed=17, quick=quick)
    flash_wall = time.perf_counter() - t0
    if not flash.clean:
        raise AssertionError(f"flash-crowd cell not clean: {flash.findings()[:5]}")
    churn_events = 0
    t0 = time.perf_counter()
    for process in ("poisson", "pareto"):
        churn = run_churn_cell(process, topology="waxman16", seed=17, quick=quick)
        if not churn.clean:
            raise AssertionError(
                f"{process} churn cell not clean: {churn.findings()[:5]}"
            )
        churn_events += churn.sim_events
    churn_wall = time.perf_counter() - t0
    tag = "quick" if quick else "full"
    return {
        f"flash_sim_events_{tag}": _metric(
            flash.sim_events, "events", higher_is_better=False, exact=True
        ),
        f"flash_expected_pairs_{tag}": _metric(
            flash.expected_pairs, "pairs", exact=True
        ),
        f"flash_continuity_{tag}": _metric(
            flash.continuity, "ratio", exact=True
        ),
        f"flash_control_msgs_{tag}": _metric(
            flash.control_cbt, "msgs", higher_is_better=False, exact=True
        ),
        f"flash_wall_seconds_{tag}": _metric(
            flash_wall, "s", higher_is_better=False
        ),
        f"churn_sim_events_{tag}": _metric(
            churn_events, "events", higher_is_better=False, exact=True
        ),
        f"churn_wall_seconds_{tag}": _metric(
            churn_wall, "s", higher_is_better=False
        ),
    }


def bench_hpimdm(quick: bool) -> Dict[str, Metric]:
    """HPIM-DM comparator: hard-state convergence and recovery costs.

    Doubles as a correctness smoke: the underlying runs raise (failing
    the suite) on election-census findings, unacknowledged
    advertisements, missed exactly-once delivery, or any control
    message sent during a settled window (the no-re-flood property).
    Gated metrics are deterministic sim-time counts only.
    """
    from benchmarks.bench_hpimdm import figure1_run, waxman_run

    t0 = time.perf_counter()
    converge, events, quiet, recovery, sim_events = figure1_run()
    wall = time.perf_counter() - t0
    metrics = {
        "figure1_convergence_control_msgs": _metric(
            converge, "msgs", higher_is_better=False, exact=True
        ),
        "figure1_convergence_events": _metric(
            events, "events", higher_is_better=False, exact=True
        ),
        "figure1_quiescent_control_msgs": _metric(
            quiet, "msgs", higher_is_better=False, exact=True
        ),
        "figure1_recovery_control_msgs": _metric(
            recovery, "msgs", higher_is_better=False, exact=True
        ),
        "figure1_sim_events": _metric(
            sim_events, "events", higher_is_better=False, exact=True
        ),
        "figure1_wall_seconds": _metric(wall, "s", higher_is_better=False),
    }
    if not quick:
        control, wax_events = waxman_run()
        metrics["waxman16_control_msgs"] = _metric(
            control, "msgs", higher_is_better=False, exact=True
        )
        metrics["waxman16_sim_events"] = _metric(
            wax_events, "events", higher_is_better=False, exact=True
        )
    return metrics


BENCHMARKS: Dict[str, Callable[[bool], Dict[str, Metric]]] = {
    "route_lookup": bench_route_lookup,
    "recompute": bench_recompute,
    "scheduler": bench_scheduler,
    "codec": bench_codec,
    "records": bench_records,
    "scale": bench_scale,
    "scale_smoke": bench_scale_smoke,
    "chaos": bench_chaos,
    "explore": bench_explore,
    "telemetry": bench_telemetry,
    "workloads": bench_workloads,
    "hpimdm": bench_hpimdm,
}


# -- artifacts and regression checking --------------------------------------


def artifact_path(name: str, output_dir: Optional[str] = None) -> str:
    return os.path.join(output_dir or DEFAULT_OUTPUT_DIR, f"BENCH_{name}.json")


def _read_json(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def load_artifact(name: str, output_dir: Optional[str] = None) -> Optional[dict]:
    return _read_json(artifact_path(name, output_dir))


def load_baseline(name: str) -> Optional[dict]:
    """Committed baseline from ``benchmarks/baselines/`` (the cross-PR
    trajectory a fresh checkout compares against)."""
    return _read_json(os.path.join(BASELINE_DIR, f"BENCH_{name}.json"))


def write_artifact(
    name: str,
    metrics: Dict[str, Metric],
    quick: bool,
    output_dir: Optional[str] = None,
) -> str:
    """Write ``BENCH_<name>.json``, preserving metrics not re-measured.

    Previously measured metrics come from the output directory if a
    prior run wrote there, else from the committed baseline.
    """
    previous = load_artifact(name, output_dir) or load_baseline(name)
    merged = dict(previous.get("metrics", {})) if previous else {}
    merged.update(metrics)
    payload = {
        "name": name,
        "created_unix": round(time.time(), 3),
        "quick": quick,
        "python": sys.version.split()[0],
        "metrics": merged,
    }
    path = artifact_path(name, output_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def check_regressions(
    baseline: Optional[dict],
    metrics: Dict[str, Metric],
    factor: float = REGRESSION_FACTOR,
) -> List[str]:
    """Compare freshly measured ``metrics`` against a stored artifact.

    Returns a list of human-readable regression descriptions; empty
    means every ``exact`` metric equals its baseline and no other
    ``gated`` metric is more than ``factor`` times worse than it.
    Only metrics present in both are compared, so quick runs check the
    subset they measured; raw wall-clock throughputs are informational
    and cannot fail.
    """
    if not baseline:
        return []
    failures: List[str] = []
    old_metrics = baseline.get("metrics", {})
    for key, new in metrics.items():
        old = old_metrics.get(key)
        if not old:
            continue
        if not new.get("gated", True):
            continue
        old_value = float(old.get("value", 0.0))
        new_value = float(new["value"])
        if new.get("exact", False):
            if new_value != old_value:
                failures.append(
                    f"{key}: {new_value:.12g} {new['unit']} vs baseline "
                    f"{old_value:.12g} (CHANGED: a deterministic count "
                    "must equal its baseline)"
                )
            continue
        if old_value <= 0 or new_value <= 0:
            continue
        if new.get("higher_is_better", True):
            if new_value * factor < old_value:
                failures.append(
                    f"{key}: {new_value:g} {new['unit']} vs baseline "
                    f"{old_value:g} (>{factor:g}x slower)"
                )
        else:
            if new_value > old_value * factor:
                failures.append(
                    f"{key}: {new_value:g} {new['unit']} vs baseline "
                    f"{old_value:g} (>{factor:g}x worse)"
                )
    return failures


def run_suite(
    quick: bool = False,
    only: Optional[List[str]] = None,
    profile: bool = False,
    check: bool = True,
    output_dir: Optional[str] = None,
    out=sys.stdout,
    rebaseline: bool = False,
) -> int:
    """Run the suite; returns a process exit code (1 on regression).

    ``rebaseline`` writes what the named benchmarks measure over their
    committed baselines instead of checking against them, printing
    old -> new for every value that changed (a metric this run did not
    measure — the other mode's sizes — is kept)."""
    if rebaseline:
        if not only:
            print("--rebaseline needs --only NAME: name what to rewrite", file=out)
            return 2
        check, output_dir = False, BASELINE_DIR
    selected = only or list(BENCHMARKS)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=out)
        print(f"available: {', '.join(BENCHMARKS)}", file=out)
        return 2
    all_failures: List[str] = []
    for name in selected:
        fn = BENCHMARKS[name]
        start = time.perf_counter()
        if profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            metrics = fn(quick)
            profiler.disable()
        else:
            metrics = fn(quick)
        wall = time.perf_counter() - start
        baseline = (
            (load_artifact(name, output_dir) or load_baseline(name))
            if check
            else None
        )
        failures = check_regressions(baseline, metrics)
        stored = (load_baseline(name) or {}).get("metrics", {}) if rebaseline else {}
        path = write_artifact(name, metrics, quick, output_dir)
        print(f"[{name}] ({wall:.1f}s) -> {os.path.relpath(path)}", file=out)
        for key, metric in sorted(metrics.items()):
            print(f"    {key:40s} {metric['value']:>14g} {metric['unit']}", file=out)
            old = stored.get(key, {}).get("value")
            if rebaseline and old != metric["value"]:
                print(f"    REBASELINED {key}: {old} -> {metric['value']}", file=out)
        for failure in failures:
            print(f"    REGRESSION {failure}", file=out)
        all_failures.extend(failures)
        if profile:
            stats = pstats.Stats(profiler, stream=out).sort_stats("cumulative")
            stats.print_stats(15)
    if rebaseline:
        return 0
    if all_failures:
        print(
            f"\nFAIL: {len(all_failures)} metric(s) changed an exact count "
            f"or regressed more than {REGRESSION_FACTOR:g}x — see above.",
            file=out,
        )
        return 1
    print(
        "\nOK: every exact count equals its baseline; no paired ratio "
        "regressed beyond the 3x gate.",
        file=out,
    )
    return 0
