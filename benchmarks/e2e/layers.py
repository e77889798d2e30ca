"""The traced run: an outside-in per-layer cost table.

Two more reps of the workload: one untraced with ``gc.callbacks``
timing every collection, one under ``cProfile`` with the telemetry
registries read.  The profile is folded by module into the layers
below; self time and calls of stdlib and builtin functions are charged
to the nearest ``repro`` caller along the pstats caller edges, so
``dict.get`` called from the scheduler counts as scheduler cost.

``cProfile`` taxes every Python call and no native work, so shares
lean towards call-heavy layers; they say where to look, and a gain is
then claimed on the untraced end-to-end metrics.  Call counts are
exact and repeat run to run.
"""

from __future__ import annotations

import gc
import os
import pstats
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from benchmarks.e2e.observe import Observer

OTHER = "python.other"

#: Layer -> module paths under ``src/repro/`` (a directory prefix ends
#: with ``/``).  First match wins, so files are listed before the
#: directory that holds them.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("netsim.engine", ("netsim/engine.py",)),
    ("netsim.link", ("netsim/link.py",)),
    ("harness", ("netsim/faults.py", "harness/", "chaos/")),
    ("netsim.node", ("netsim/",)),
    ("routing.table", ("routing/table.py",)),
    ("routing.linkstate", ("routing/",)),
    ("core.forwarding", ("core/forwarding.py", "core/fib.py")),
    ("core.messages", ("core/messages.py",)),
    ("core.audit", ("core/audit.py",)),
    ("core.bootstrap", ("core/bootstrap.py",)),
    ("core.router", ("core/",)),
    ("igmp", ("igmp/",)),
    ("telemetry", ("telemetry/",)),
    ("topology", ("topology/",)),
    ("workloads", ("workloads/",)),
    ("baselines", ("baselines/",)),
    ("explore", ("explore/",)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(sorted({name for name, _ in LAYERS})) + (
    OTHER,
)

_PACKAGE = os.sep + os.path.join("src", "repro") + os.sep
_BENCH = os.path.dirname(os.path.abspath(__file__)) + os.sep

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; ``None`` for stdlib and builtins,
    whose cost is charged to their callers."""
    at = filename.rfind(_PACKAGE)
    if at < 0:
        return OTHER if filename.startswith(_BENCH) else None
    module = filename[at + len(_PACKAGE):].replace(os.sep, "/")
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            if module == prefix or (prefix.endswith("/") and module.startswith(prefix)):
                return layer
    return OTHER


def fold(stats: Dict[Func, tuple]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(self seconds, calls) per layer from a ``pstats`` table."""
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    memo: Dict[Func, Dict[str, float]] = {}
    visiting: Set[Func] = set()

    def owners(func: Func) -> Dict[str, float]:
        """Fractions of ``func``'s invocations owed to each layer."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        if func in visiting or not callers:
            return {OTHER: 1.0}
        visiting.add(func)
        # Caller edges weigh by call count, not time, so that the
        # per-layer call counts stay exact from run to run.
        total = sum(edge[1] for edge in callers.values())
        shares: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            for owner, part in owners(caller).items():
                shares[owner] += part * edge[1] / total
        visiting.discard(func)
        memo[func] = shares
        return shares

    for func, (_cc, ncalls, self_s, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None or not callers:
            seconds[layer or OTHER] += self_s
            calls[layer or OTHER] += ncalls
            continue
        for caller, (_ecc, edge_calls, edge_self, _ect) in callers.items():
            for owner, part in owners(caller).items():
                seconds[owner] += edge_self * part
                calls[owner] += edge_calls * part
    return seconds, calls


def calls_of(stats: Dict[Func, tuple], module: str, name: str) -> int:
    """Calls of the public function ``name`` defined in ``repro/<module>``."""
    suffix = _PACKAGE + module.replace("/", os.sep)
    return sum(
        entry[1]
        for (filename, _line, func), entry in stats.items()
        if func == name and filename.endswith(suffix)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _prefixed(families: Dict[str, float], *prefixes: str) -> float:
    return sum(v for k, v in families.items() if k.startswith(prefixes))


def trace(workload, seed: int) -> Dict[str, object]:
    """Every per-layer metric of one ``(workload, seed)``."""
    gc.collect()
    plain = Observer(gc_watch=True)
    untraced = workload.rep(seed, plain)
    gc.collect()
    watched = Observer(profile=True, registry=True)
    traced = workload.rep(seed, watched)

    stats = pstats.Stats(watched.profiler).stats
    seconds, calls = fold(stats)
    events = traced.sim_events
    total_seconds = sum(seconds.values())
    values: Dict[str, float] = {
        "calls_per_event": sum(entry[1] for entry in stats.values()) / events,
        "sim_latency_p99_ms": traced.sim_latency_p99_ms,
    }
    for layer in LAYER_NAMES:
        values[f"{layer}.self_share"] = _ratio(seconds[layer], total_seconds)
        values[f"{layer}.calls_per_event"] = calls[layer] / events

    seen = watched.families
    router = "cbt.router.*."
    link_tx = seen["netsim.link.*.tx_packets"]
    scheduled = seen["netsim.scheduler.events_scheduled"]
    control_tx = _prefixed(seen, router + "tx.") - seen[router + "tx.hello"]
    counts = untraced.counts
    values.update(
        {
            "netsim.engine.scheduled_per_event": scheduled / events,
            "netsim.engine.cancelled_share": _ratio(
                seen["netsim.scheduler.events_cancelled"], scheduled
            ),
            "netsim.link.tx_per_event": link_tx / events,
            "netsim.link.fanout_mean": _ratio(seen["netsim.link.*.fanout"], link_tx),
            "netsim.link.drop_share": _ratio(
                _prefixed(seen, "netsim.link.*.drop."),
                seen["netsim.link.*.attempts"],
            ),
            "routing.table.lookups_per_event": calls_of(
                stats, "routing/table.py", "lookup"
            )
            / events,
            "routing.linkstate.recomputes": calls_of(
                stats, "routing/linkstate.py", "recompute"
            ),
            "core.router.rx_join_request": seen[router + "rx.join_request"],
            "core.router.rx_join_ack": seen[router + "rx.join_ack"],
            "core.router.rx_quit_flush": seen[router + "rx.quit_request"]
            + seen[router + "rx.flush_tree"],
            "core.router.rx_echo": seen[router + "rx.echo_request"]
            + seen[router + "rx.echo_reply"],
            "core.router.rx_hello": seen[router + "rx.hello"],
            "core.router.ctl_per_join": _ratio(
                control_tx, seen[router + "joins_completed"]
            ),
            "core.forwarding.data_tx_per_event": (
                seen["netsim.msg.proto17.tx"] + seen["netsim.msg.CBTDataPacket.tx"]
            )
            / events,
            "core.forwarding.fib_adds": seen[router + "fib_adds"],
            "core.forwarding.fib_removes": seen[router + "fib_removes"],
            "igmp.msgs_per_event": _prefixed(
                seen, "igmp.router.*.tx.", "igmp.host.*.tx."
            )
            / events,
            "core.audit.checks": calls_of(stats, "core/audit.py", "check_invariants"),
            "telemetry.instruments": _ratio(watched.instruments, watched.networks),
            "harness.cells": counts.get("harness.cells", 0),
            "harness.cell_ms": 1000.0
            * _ratio(counts.get("harness.cell_s", 0), counts.get("harness.cells", 0)),
            "baselines.legs": counts.get("baselines.legs", 0),
            "explore.runs": counts.get("explore.runs", 0),
            "explore.states_visited": counts.get("explore.states_visited", 0),
            "explore.states_pruned": counts.get("explore.states_pruned", 0),
            "explore.run_ms": 1000.0
            * _ratio(counts.get("explore.run_s", 0), counts.get("explore.runs", 0)),
            "python.gc.gen0": plain.gc_collections[0],
            "python.gc.gen1": plain.gc_collections[1],
            "python.gc.gen2": plain.gc_collections[2],
            "python.gc.pause_s": plain.gc_pause_s,
            "python.gc.time_share": plain.gc_pause_s / plain.wall_s,
            "host.untraced_wall_s": plain.wall_s,
            "host.cpu_s": plain.cpu_s,
            "host.profile_overhead_ratio": watched.wall_s / plain.wall_s,
            "host.loadavg": os.getloadavg()[0],
        }
    )

    notes = untraced.notes + traced.notes
    if traced.digest != untraced.digest:
        notes.append(
            f"traced rep digest {traced.digest} != untraced {untraced.digest}"
        )
    return {
        "values": values,
        "result_digest": untraced.digest,
        "attempted": untraced.ops + traced.ops,
        "failed": untraced.failed + traced.failed,
        "correct": not notes and untraced.failed == traced.failed == 0,
        "notes": notes,
        "sim_events": events,
    }


def render(values: Dict[str, float]) -> List[str]:
    """The layer table, dearest layer first."""
    lines = [f"{'layer':<20}{'self_share':>12}{'calls/event':>14}"]
    for layer in sorted(
        LAYER_NAMES, key=lambda name: -values[f"{name}.self_share"]
    ):
        lines.append(
            f"{layer:<20}{values[f'{layer}.self_share']:>12.4f}"
            f"{values[f'{layer}.calls_per_event']:>14.3f}"
        )
    total = sum(values[f"{layer}.self_share"] for layer in LAYER_NAMES)
    lines.append(f"{'(sum)':<20}{total:>12.4f}{values['calls_per_event']:>14.3f}")
    return lines
