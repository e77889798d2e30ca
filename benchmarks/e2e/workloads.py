"""The four benchmark workloads, each driven through public ``repro.*``
calls only.

A workload's :meth:`rep` does one repetition from a fresh build: it
times set-up, runs the timed region in *slices* (the finest public
boundary the workload has), verifies the outputs and returns a
:class:`Rep`.  Every rep of one ``(workload, seed)`` does identical
work, which is what lets the estimator take a per-slice minimum over
reps (see :mod:`benchmarks.e2e.measure`).

The timed region runs inside ``observer.region()``
(:mod:`benchmarks.e2e.observe`), which counts what the networks of the
region did and, in the traced run, profiles it; ``observer.flush()``
is called at slice ends, where every network of the slice has
finished.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from benchmarks.e2e.observe import Observer
from repro.chaos.scenarios import SCENARIOS as CHAOS_SCENARIOS
from repro.core.bootstrap import CBTDomain
from repro.explore import explore, get_scenario, scenario_options
from repro.harness.baseline_cell import (
    BASELINE_SCENARIOS,
    run_baseline_compare_cell,
)
from repro.harness.campaign import TOPOLOGIES, run_scenario
from repro.harness.scenarios import (
    FAST_IGMP,
    FAST_TIMERS,
    SETTLE_TIME,
    build_cbt_group,
    pick_members,
)
from repro.netsim.address import group_address
from repro.netsim.faults import derive_seed
from repro.netsim.packet import PROTO_UDP, IPDatagram, UDPDatagram
from repro.topology.generators import waxman_network
from repro.workloads.cell import run_flash_crowd_cell
from repro.workloads.probe import histogram_percentile

#: Sim seconds per timed ``Network.run(until=...)`` slice.
SLICE = 0.25

#: Spacing of joins and data packets, and the drain tail after the last
#: one — the values ``build_cbt_group`` / ``send_data`` use.
JOIN_SPACING = 0.05
PACKET_SPACING = 0.01
DRAIN = 2.0

#: Campaign seeds the ``verify_small`` cells draw from.  Seeds 17 and
#: 29 are left out: ``core_crash`` on ``waxman16`` does not recover at
#: either (README, "Findings"), and a benchmark run needs zero failed
#: operations.  The other 62 were validated clean over every chaos and
#: baseline-compare cell.
CELL_SEED_POOL: Tuple[int, ...] = tuple(
    s for s in range(64) if s not in (17, 29)
)

#: Seeds on which the full-size flash-crowd cell was run and found
#: clean: 1-70 without 22, 65 and 70, where one whole segment (sent at
#: t=21.5-22.0) is missed by 38-55 clients at once (README, "Findings").
#: A seed outside the pool is mapped into it, so two such seeds can
#: share a cell; seeds in the pool, 17 and 29 among them, run as given.
FLASH_SEED_POOL: Tuple[int, ...] = tuple(
    s for s in range(1, 71) if s not in (22, 65, 70)
)


@dataclass
class Rep:
    """What one repetition measured and verified."""

    setup_s: float
    #: Wall seconds per timed slice; same length on every rep.
    slice_s: List[float]
    #: Operations attempted / failed (see each workload's ``op``).
    ops: int
    failed: int
    sim_events: int
    control_msgs: int
    sim_latency_p99_ms: float
    #: Hash of the deterministic results: equal across reps and runs.
    digest: str
    #: Exact counts only the workload itself can see (cells, legs ...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: One line per verification failure.
    notes: List[str] = field(default_factory=list)
    #: Host slowdown during the timed region and during set-up (set by
    #: ``measure.run_reps``); a time over its slowdown is in calibrated
    #: seconds.
    slowdown: float = 1.0
    setup_slowdown: float = 1.0


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _run_sliced(
    network, until: float, walls: List[float], clock: Callable[[], float]
) -> None:
    """Advance ``network`` to ``until`` in :data:`SLICE` steps, timing each."""
    now = network.scheduler.now
    while now < until:
        now = min(until, now + SLICE)
        t0 = clock()
        network.run(until=now)
        walls.append(clock() - t0)


def _sender(network, host_name: str, group, uids: List[int]):
    """Closure originating one 64-byte UDP datagram, as ``send_data`` does."""
    host = network.host(host_name)

    def send() -> None:
        datagram = IPDatagram(
            src=host.interface.address,
            dst=group,
            proto=PROTO_UDP,
            payload=UDPDatagram(sport=40000, dport=5000, payload=b"x" * 64),
            ttl=64,
        )
        uids.append(datagram.uid)
        host.originate(datagram)

    return send


def _join_p99_ms(network) -> float:
    histograms = network.telemetry.registry.histograms_matching(
        "cbt.router.*.join_latency"
    )
    return histogram_percentile(histograms, 0.99) * 1000.0


def _tree_failures(domain, groups: Sequence) -> List[str]:
    notes = []
    for group in groups:
        try:
            domain.assert_tree_consistent(group)
        except AssertionError as error:
            notes.append(f"tree {group}: {error}")
    return notes


def _delivery_failures(
    network, receivers: Sequence[str], uids: Sequence[int], label: str
) -> Tuple[int, List[str]]:
    """(pairs not delivered exactly once, notes) for ``uids`` x ``receivers``;
    a receiver holding any other datagram is one more failure."""
    failed = 0
    notes = []
    wanted = set(uids)
    for name in receivers:
        counts = Counter(d.uid for d in network.host(name).delivered)
        bad = sum(1 for uid in uids if counts.get(uid, 0) != 1)
        stray = sum(n for uid, n in counts.items() if uid not in wanted)
        if bad or stray:
            failed += bad + (1 if stray else 0)
            notes.append(
                f"{label} {name}: {bad} of {len(uids)} packets not delivered "
                f"exactly once, {stray} stray"
            )
    return failed, notes


def _by_degree(network) -> List[str]:
    """Router names, highest degree first (the cells' core choice)."""
    return sorted(
        network.routers,
        key=lambda n: (-len(network.routers[n].interfaces), n),
    )


@dataclass(frozen=True)
class Converge:
    """Cold control-plane convergence: the E14 cell from public parts."""

    name: str = "converge_n1000"
    op: str = "member join"
    routers: int = 1000
    alpha: float = 0.02
    members: int = 125
    #: Seconds one rep (set-up + timed region) takes on the builder's box.
    nominal_rep_s: float = 5.0

    def rep(self, seed: int, observer: Observer) -> Rep:
        clock = observer.clock
        t0 = clock()
        network = waxman_network(self.routers, alpha=self.alpha, seed=seed)
        members = pick_members(network, self.members, seed=seed)
        domain = CBTDomain(network, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        domain.start()
        group = group_address(0)
        setup_s = clock() - t0

        walls: List[float] = []
        uids: List[int] = []
        schedule = network.scheduler.call_at
        with observer.region(network):
            _run_sliced(network, SETTLE_TIME, walls, clock)
            domain.create_group(group, cores=["N0"])
            start = network.scheduler.now
            for index, member in enumerate(members):
                schedule(
                    start + index * JOIN_SPACING,
                    lambda m=member: domain.join_host(m, group),
                )
            _run_sliced(
                network, start + len(members) * JOIN_SPACING + DRAIN, walls, clock
            )
            start = network.scheduler.now
            schedule(start, _sender(network, members[0], group, uids))
            _run_sliced(network, start + PACKET_SPACING + DRAIN, walls, clock)

        notes = _tree_failures(domain, [group])
        failed, missed = _delivery_failures(network, members[1:], uids, "probe")
        if notes:
            failed = len(members)
        sim_events = network.scheduler.events_processed
        control = domain.control_messages_sent()
        latency = _join_p99_ms(network)
        return Rep(
            setup_s=setup_s,
            slice_s=walls,
            ops=len(members),
            failed=failed,
            sim_events=sim_events,
            control_msgs=control,
            sim_latency_p99_ms=latency,
            digest=_digest(
                sim_events, control, latency, failed, domain.tree_edges(group)
            ),
            notes=notes + missed,
        )


@dataclass(frozen=True)
class Stream:
    """Steady-state forwarding over standing trees."""

    name: str = "stream_n1000"
    op: str = "(packet, member) delivery"
    routers: int = 1000
    alpha: float = 0.02
    groups: int = 4
    members_per_group: int = 32
    packets: int = 400
    nominal_rep_s: float = 6.7

    def rep(self, seed: int, observer: Observer) -> Rep:
        clock = observer.clock
        t0 = clock()
        network = waxman_network(self.routers, alpha=self.alpha, seed=seed)
        picked = pick_members(
            network, self.groups * self.members_per_group, seed=seed
        )
        cores = _by_degree(network)[: self.groups]
        groups = [group_address(g) for g in range(self.groups)]
        members = [picked[g :: self.groups] for g in range(self.groups)]
        domain = None
        for g, group in enumerate(groups):
            domain, _ = build_cbt_group(
                network, members[g], [cores[g]], group=group, domain=domain
            )
        setup_s = clock() - t0

        walls: List[float] = []
        uids: List[List[int]] = [[] for _ in groups]
        senders = [
            _sender(network, members[g][0], groups[g], uids[g])
            for g in range(self.groups)
        ]
        events_before = network.scheduler.events_processed
        control_before = domain.control_messages_sent()
        with observer.region(network):
            start = network.scheduler.now
            for index in range(self.packets):
                network.scheduler.call_at(
                    start + index * PACKET_SPACING,
                    senders[index % self.groups],
                )
            _run_sliced(
                network,
                start + self.packets * PACKET_SPACING + DRAIN,
                walls,
                clock,
            )

        ops = sum(len(uids[g]) * (len(members[g]) - 1) for g in range(self.groups))
        notes = _tree_failures(domain, groups)
        failed = ops if notes else 0
        for g in range(self.groups):
            bad, missed = _delivery_failures(
                network, members[g][1:], uids[g], f"group {g}"
            )
            failed = min(ops, failed + bad)
            notes += missed
        sim_events = network.scheduler.events_processed - events_before
        control = domain.control_messages_sent() - control_before
        latency = _join_p99_ms(network)
        return Rep(
            setup_s=setup_s,
            slice_s=walls,
            ops=ops,
            failed=failed,
            sim_events=sim_events,
            control_msgs=control,
            sim_latency_p99_ms=latency,
            digest=_digest(
                sim_events,
                control,
                latency,
                failed,
                [domain.tree_edges(group) for group in groups],
            ),
            notes=notes,
        )


@dataclass(frozen=True)
class FlashCrowd:
    """``run_flash_crowd_cell`` called whole, as ``repro workload`` does."""

    name: str = "flash_crowd_n1000"
    op: str = "(client, segment) pair"
    topology: str = "bulk1000"
    quick: bool = False
    nominal_rep_s: float = 11.0

    def _set_up(self, seed: int) -> None:
        """The cell's own set-up steps from public parts, so that
        ``setup_s`` exists for a call that cannot be split: same seed
        chain, topology and domain as ``run_flash_crowd_cell`` builds
        before it runs anything.  Not subtracted from the timed call."""
        cell_seed = derive_seed(seed, "workload", "flash-crowd", self.topology)
        if self.topology == "bulk1000":
            network = waxman_network(
                1000, alpha=0.02, seed=derive_seed(cell_seed, "bulk1000")
            )
        else:
            network = TOPOLOGIES[self.topology].build(cell_seed)[0]
        CBTDomain(network, timers=FAST_TIMERS, igmp_config=FAST_IGMP).start()

    def rep(self, seed: int, observer: Observer) -> Rep:
        if self.topology == "bulk1000" and seed not in FLASH_SEED_POOL:
            seed = FLASH_SEED_POOL[seed % len(FLASH_SEED_POOL)]
        clock = observer.clock
        t0 = clock()
        self._set_up(seed)
        setup_s = clock() - t0

        with observer.region():
            t0 = clock()
            result = run_flash_crowd_cell(
                self.topology, seed=seed, quick=self.quick
            )
            walls = [clock() - t0]

        failed = len(result.missing) + result.duplicate_pairs
        notes = [f"missing {host} t={at}" for host, at in result.missing[:5]]
        if not result.clean:
            failed = max(failed, 1)
            notes.append(
                f"cell not clean: recovered={result.recovered} "
                f"drained={result.drained} violations={result.violations[:2]} "
                f"snapshots={result.snapshots}"
            )
        return Rep(
            setup_s=setup_s,
            slice_s=walls,
            ops=result.expected_pairs,
            failed=failed,
            sim_events=result.sim_events,
            control_msgs=result.control_cbt,
            sim_latency_p99_ms=result.join_p99 * 1000.0,
            digest=_digest(result.fingerprint()),
            notes=notes,
        )


@dataclass(frozen=True)
class VerifySmall:
    """Many short simulations: chaos matrix, comparator cells, exploration."""

    name: str = "verify_small"
    op: str = "simulation run"
    topologies: Tuple[str, ...] = ("figure1", "grid9", "waxman16")
    chaos_scenarios: Tuple[str, ...] = tuple(CHAOS_SCENARIOS)
    chaos_seeds: int = 2
    baseline_scenarios: Tuple[str, ...] = BASELINE_SCENARIOS
    baseline_seeds: int = 1
    #: (explore scenario, max_decisions); exhaustive, so seed-independent.
    explorations: Tuple[Tuple[str, int], ...] = (
        ("joins-race", 3),
        ("lan-proxy", 3),
        ("flap-join", 4),
        ("quit-race", 4),
        ("hpimdm-elections", 3),
    )
    nominal_rep_s: float = 10.0

    def _cell_seeds(self, seed: int, count: int) -> List[int]:
        pool = CELL_SEED_POOL
        return [pool[(3 * seed + i) % len(pool)] for i in range(count)]

    def rep(self, seed: int, observer: Observer) -> Rep:
        clock = observer.clock
        t0 = clock()
        chaos = [
            (scenario, topology, cell_seed)
            for topology in self.topologies
            for scenario in self.chaos_scenarios
            for cell_seed in self._cell_seeds(seed, self.chaos_seeds)
        ]
        baseline = [
            (scenario, topology, cell_seed)
            for topology in self.topologies
            for scenario in self.baseline_scenarios
            for cell_seed in self._cell_seeds(seed, self.baseline_seeds)
        ]
        searches = [
            (get_scenario(name), depth) for name, depth in self.explorations
        ]
        for topology in self.topologies:
            TOPOLOGIES[topology].build(seed)
        setup_s = clock() - t0
        events_before = observer.events

        walls: List[float] = []
        prints: List[object] = []
        notes: List[str] = []
        ops = failed = control = 0
        recovery = 0.0
        counts = Counter()
        explore_s = 0.0
        with observer.region():
            for scenario, topology, cell_seed in chaos:
                t0 = clock()
                cell = run_scenario(scenario, topology=topology, seed=cell_seed)
                walls.append(clock() - t0)
                observer.flush()
                ops += 1
                control += cell.control_cost
                prints.append(cell.fingerprint())
                if cell.recovered and not cell.violations:
                    recovery = max(recovery, cell.recovery_time)
                else:
                    failed += 1
                    notes.append(f"chaos {scenario}/{topology}/{cell_seed}")
            for scenario, topology, cell_seed in baseline:
                t0 = clock()
                cell = run_baseline_compare_cell(
                    scenario, topology=topology, seed=cell_seed
                )
                walls.append(clock() - t0)
                observer.flush()
                ops += len(cell.outcomes)
                counts["baselines.legs"] += len(cell.outcomes) - 1
                prints.append(cell.fingerprint())
                for outcome in cell.outcomes:
                    control += outcome.control_cost
                    if outcome.recovered and not outcome.findings:
                        recovery = max(recovery, outcome.recovery_time)
                    else:
                        failed += 1
                        notes.append(
                            f"baseline {scenario}/{topology}/{cell_seed} "
                            f"{outcome.protocol}"
                        )
            counts["harness.cells"] = len(walls)
            counts["harness.cell_s"] = sum(walls)
            for scenario, depth in searches:
                t0 = clock()
                result = explore(
                    scenario, scenario_options(scenario, max_decisions=depth)
                )
                walls.append(clock() - t0)
                observer.flush()
                explore_s += walls[-1]
                stats = result.stats
                ops += stats.runs
                counts["explore.runs"] += stats.runs
                counts["explore.states_visited"] += stats.states_visited
                counts["explore.states_pruned"] += stats.states_pruned
                prints.append(
                    (
                        scenario.name,
                        stats.runs,
                        stats.states_visited,
                        stats.states_pruned,
                        result.exhausted,
                        result.visited_digest,
                    )
                )
                if not (result.exhausted and result.ok):
                    failed += stats.runs
                    notes.append(f"explore {scenario.name} depth {depth}")
        counts["explore.run_s"] = explore_s
        return Rep(
            setup_s=setup_s,
            slice_s=walls,
            ops=ops,
            failed=failed,
            sim_events=observer.events - events_before,
            control_msgs=control,
            sim_latency_p99_ms=recovery * 1000.0,
            digest=_digest(prints),
            counts=dict(counts),
            notes=notes,
        )


WORKLOADS = {
    w.name: w for w in (Converge(), Stream(), FlashCrowd(), VerifySmall())
}

#: Scaled-down variants for ``test_e2e.py`` (seconds, not minutes).
SMALL = {
    "converge_n1000": Converge(routers=120, alpha=0.1, members=15),
    "stream_n1000": Stream(
        routers=120, alpha=0.1, groups=2, members_per_group=6, packets=50
    ),
    "flash_crowd_n1000": FlashCrowd(topology="waxman16", quick=True),
    "verify_small": VerifySmall(
        topologies=("figure1",),
        chaos_scenarios=("link_flap", "router_crash"),
        chaos_seeds=1,
        baseline_scenarios=("link_flap",),
        baseline_seeds=1,
        explorations=(("quit-race", 2),),
    ),
}
