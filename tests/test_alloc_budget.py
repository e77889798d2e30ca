"""Allocation budget of the event path (docs/PERFORMANCE.md,
"Allocation and the collector").

``Scheduler.run`` pauses the cyclic collector, so what is pending at
scale costs resident memory and the collections the *build* runs, not
collections inside the loop.  Two guards live here.  The closure rule
— schedule with args, bind gauges by attribute, never a per-event (or
per-link) closure — is checked on the live heap of a started
120-router domain rather than in the source.  And the pause is safe
only while the loop and every protocol it drives free what they drop
by refcount: the last two tests drive each protocol leg with the
collector off and require that a full collection afterwards finds
nothing, and that no collection starts inside ``run()`` at all.

Beside the heap, four call budgets counted with ``sys.setprofile``:
what the data plane may spend per transmission, what the two messages
an idle control plane consists of — the HELLO and the IGMP general
query — may spend from send to handler, what one look by each
periodic observer — the invariant sweep, the quality probe, the
conservation laws — may spend on a settled domain, with the sweep also
held to the size of the tree rather than of the domain, and what an
explorer search may spend per simulated event.
"""

import collections
import contextlib
import gc
import sys
import types
import weakref

import pytest

from repro.chaos.scenarios import SCENARIOS as CHAOS_SCENARIOS
from repro.core import audit
from repro.core.audit import Finding, InvariantAuditor, check_invariants
from repro.core.bootstrap import CBTDomain
from repro.core.forwarding import DataPlane
from repro.core.legacy import LegacyDRExtension, LegacyHostAgent
from repro.explore import explore, get_scenario, scenario_options
from repro.explore.engine import run_schedule
from repro.explore.scenarios import SCENARIOS as EXPLORE_SCENARIOS
from repro.harness.baseline_cell import run_baseline_compare_cell
from repro.harness.campaign import TOPOLOGIES, run_scenario
from repro.harness.migration_cell import run_migration_cell
from repro.harness.scenarios import (
    FAST_IGMP,
    FAST_TIMERS,
    build_cbt_group,
    build_dvmrp_group,
    build_hpimdm_group,
    pick_members,
    send_data,
)
from repro.netsim.address import group_address
from repro.netsim.engine import Scheduler
from repro.netsim.link import Link
from repro.telemetry.conservation import check_conservation
from repro.topology.figures import FIGURE1_MEMBERS, build_figure1
from repro.topology.generators import waxman_network
from repro.workloads.cell import run_churn_cell, run_flash_crowd_cell
from repro.workloads.probe import QualityProbe
from tests.test_wire_format import make_wire_domain

#: Modules whose code runs per event or per link and must therefore
#: build no closures (``repro.telemetry`` covers its submodules).
CLOSURE_FREE = (
    "repro.netsim.link",
    "repro.netsim.engine",
    "repro.netsim.node",
    "repro.igmp.router_side",
    "repro.core",
    "repro.baselines",
    "repro.telemetry",
)

#: GC-tracked objects a started n=120 domain may cost per link.  With
#: one record per scheduled event, and a link's six wire gauges one
#: ``gauge_attrs`` entry until something reads them, this tree measures
#: 60.0 / 59.9 (seeds 5 / 17; 65.0 / 64.9 with six ``Gauge`` objects
#: per link from the start, 75.2 with an event record plus a handle;
#: packets in flight are tracked tuples where they were tracked
#: instances, so the tuple records did not move it); the ceiling is
#: that plus 10 %.
TRACKED_PER_LINK_CEILING = 66.0

#: Python calls the data plane may make per transmission (a tree
#: forward or a member-LAN delivery), counted from its entry points
#: down through the link and the scheduler.  Forwarding from the
#: downloaded kernel entry, copying tuple records, scheduling straight
#: from ``Link.transmit`` and hashing addresses as ints, this tree
#: measures 18.8 in CBT mode and 18.5 native (22.2 / 20.7 with the
#: standard library's address type; 26.1 / 24.7 with dataclass packets
#: and a ``call_later`` / ``_record`` frame per transmission; 35.6 /
#: 34.8 when every packet also re-derived its fan-out and copied headers
#: through ``dataclasses.replace``); the ceiling is that plus 10 %.
DATA_PATH_CALLS_PER_TRANSMISSION_CEILING = {"cbt": 20.7, "native": 20.4}

#: Python calls one keepalive may make from its sender's tick to its
#: receivers' handlers (tick -> ``transmit`` -> ``deliver`` ->
#: ``_recv_hello`` / ``_handle_query``), per message sent, on the
#: 120-router world below with every neighbour already known.  Built as
#: tuple records, sent without pass-through frames and keyed by int
#: addresses this tree measures 17.7 per HELLO and 18.0 per general
#: query (20.9 / 23.2 with the standard library's address type; 33.2 /
#: 30.9 when each was three frozen dataclasses built through
#: ``make_udp`` / keywords and scheduled through ``call_later``); the
#: ceiling is that plus 10 %.
CONTROL_CALLS_PER_MESSAGE_CEILING = {"hello": 19.5, "query": 19.8}

#: Python calls one look may cost on a settled 120-router domain
#: (``waxman_network(120, alpha=0.1)``, 398 links) carrying one
#: 15-member group on a 28-router tree.  Reading the domain's address
#: index, visiting only routers that hold state and summing the
#: counters ``ControlStats`` holds, this tree measures 594 / 886 /
#: 10,318 (839 / 971 / 10,362 with the standard library's address type;
#: 2,948 / 3,872 / 17,812 when every look re-walked every interface,
#: re-ran Dijkstra and pattern-queried the registry per router and per
#: link); the ceiling is that plus 10 %.
OBSERVER_CALLS_CEILING = {
    "check_invariants": 653,
    "sample": 975,
    "check_conservation": 11350,
}

#: Profiled calls (Python and C, as ``cProfile`` counts them) one search
#: may make per simulated event: ``explore`` of ``joins-race`` at
#: ``max_decisions=3`` (53 runs, 28,768 events), counted warm.  With
#: Figure 1 built untraced and each tie group drawn from the heap once
#: this tree measures 50.12 (61.45 when every world kept a packet trace
#: and every firing re-drew and re-pushed its whole tie group); the
#: ceiling is that plus 10 %.  Since a search simulates each schedule
#: once (37 simulations for the 53 runs) it reads 20,090 events at 49.04
#: calls per event; the ceiling stays.
EXPLORE_CALLS_PER_EVENT_CEILING = 55.1

#: ``check_invariants`` on 240 routers (1,439 links, a 36-router tree
#: for the same 15 members) against the 120-router count: the cost
#: follows the tree, not the domain (measured 873 / 594 = 1.47, of
#: which 1.29 is the tree itself; 1,213 / 839 = 1.45 with the standard
#: library's address type, 8,024 / 2,948 = 2.72 before).
OBSERVER_CALLS_DOUBLING_CEILING = 1.5


def started_domain(size, seed=5):
    net = waxman_network(size, seed=seed)
    net.trace.enabled = False
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    domain.start()
    net.run(until=3.0)
    return net, domain


@pytest.fixture(scope="module")
def world():
    started_domain(9)  # lazy imports and caches land before the count
    gc.collect()
    before = len(gc.get_objects())
    net, domain = started_domain(120)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    return net, domain, tracked


def test_no_closures_from_the_event_path_modules(world):
    net, domain, _ = world
    assert net.scheduler.pending_events > 1000  # timers are armed
    offenders = [
        f"{obj.__module__}.{obj.__qualname__}"
        for obj in gc.get_objects()
        if isinstance(obj, types.FunctionType)
        and obj.__closure__
        # Made at run time inside another function: class-level methods
        # also carry a cell (``super()``, dataclass-generated dunders)
        # but exist once per class, not once per event or per link.
        and "<locals>" in obj.__qualname__
        and (obj.__module__ or "").startswith(CLOSURE_FREE)
    ]
    assert sorted(set(offenders)) == []


def test_pending_delivery_is_a_bound_method_plus_args(world):
    net, domain, _ = world
    group = group_address(0)
    domain.create_group(group, cores=["N0"])
    domain.join_host(pick_members(net, 1, seed=5)[0], group)
    deliveries = [
        timer
        for _time, _seq, timer in net.scheduler._queue
        if getattr(timer.callback, "__func__", None)
        in (Link.deliver, Link.deliver_batch)
    ]
    assert deliveries  # the IGMP report is on the wire
    for timer in deliveries:
        assert isinstance(timer.callback.__self__, Link)
        receivers, datagram, _msg = timer.args
        assert datagram.dst.is_multicast
        assert receivers
    net.run(until=net.scheduler.now + 1.0)


def test_tracked_objects_per_link_under_ceiling(world):
    net, _, tracked = world
    per_link = tracked / len(net.links)
    assert per_link < TRACKED_PER_LINK_CEILING, per_link


# -- the loop runs with the collector paused: it must leave it no work ----------
#
# Each leg builds its world, then returns the network and the callable
# that drives it; only the drive is held to "no cyclic garbage".


def _run_for(net, seconds):
    net.run(until=net.scheduler.now + seconds)


def _cbt_leg(net, domain):
    """Joins, data, leaves, and a tree link and an on-tree router each
    down for longer than the echo timeout (then repaired), on a
    started CBT domain."""
    group = group_address(1)
    members = pick_members(net, 6, seed=5)
    core = sorted(net.routers)[0]
    domain.create_group(group, cores=[core])

    def kinds():
        return {e.kind for p in domain.protocols.values() for e in p.events}

    def drive():
        for member in members[:5]:
            domain.join_host(member, group)
        _run_for(net, 3.0)
        send_data(net, members[5], group, count=3)
        child, parent = domain.tree_edges(group)[0]
        link = next(
            name
            for name, link in sorted(net.links.items())
            if {child, parent} <= {i.node.name for i in link.interfaces}
        )
        net.fail_link(link)
        _run_for(net, 2 * FAST_TIMERS.echo_timeout)
        net.restore_link(link)
        _run_for(net, 3.0)
        assert "parent_lost" in kinds()
        crashed = next(p for _, p in domain.tree_edges(group) if p != core)
        net.fail_router(crashed)
        _run_for(net, 2 * FAST_TIMERS.echo_timeout)
        net.restore_router(crashed)
        _run_for(net, 3.0)
        send_data(net, members[5], group, count=2)
        for member in members[:3]:
            domain.leave_host(member, group)
        _run_for(net, 6.0)
        assert "quit" in kinds() and domain.on_tree_routers(group)

    return net, drive


def cbt_n120():
    return _cbt_leg(*started_domain(120))


def cbt_wire_format_figure1():
    net = build_figure1()
    domain, _ = make_wire_domain(net)
    return _cbt_leg(net, domain)


def dvmrp_prune_graft():
    net = waxman_network(12, seed=24)
    domain, group = build_dvmrp_group(net, ["H_N3"], prune_lifetime=600.0)

    def drive():
        send_data(net, "H_N5", group, count=2)
        assert sum(p.stats.prunes_sent for p in domain.protocols.values()) > 0
        domain.join_host("H_N9", group)  # grafts a pruned branch back
        _run_for(net, 5.0)
        uid = send_data(net, "H_N5", group, count=1)[0]
        assert any(d.uid == uid for d in net.host("H_N9").delivered)
        domain.leave_host("H_N9", group)
        _run_for(net, 5.0)

    return net, drive


def hpimdm_election():
    net = build_figure1()
    domain, group = build_hpimdm_group(net, ["B", "G"])

    def drive():
        # S4 attaches R2, R5 and R6: data from A makes all three assert.
        send_data(net, "A", group, count=2, spacing=0.05)
        _run_for(net, 12.0)
        source = net.host("A").interface.address
        assert len(domain.upstream_winners(source, group)["S4"]) == 1
        domain.leave_host("G", group)
        _run_for(net, 12.0)
        domain.join_host("G", group)
        _run_for(net, 12.0)
        assert domain.election_findings() == []

    return net, drive


def legacy_join_path():
    net = build_figure1()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    for protocol in domain.protocols.values():
        LegacyDRExtension(protocol)  # registers itself on the protocol
    agents = {
        name: LegacyHostAgent(net.host(name), igmp_agent=domain.agent(name))
        for name in ("A", "B")
    }
    domain.start()
    net.run(until=3.0)
    group = group_address(0)
    cores = (net.router("R4").primary_address, net.router("R9").primary_address)

    def drive():
        agents["A"].join(group, cores, initiator=True)
        _run_for(net, 5.0)
        agents["B"].join(group, cores[:1])  # R2/R5 hold a DR election
        _run_for(net, 8.0)
        assert all(agent.is_complete(group) for agent in agents.values())

    return net, drive


def explorer_world_cut_mid_tie_group():
    """The ``joins-race`` world under a choice hook that raises the
    second time it is asked about one instant: the run stops with one
    member of that tie group fired and the rest set aside."""
    world = get_scenario("joins-race").build()
    net = world.network
    scheduler = net.scheduler
    asked = []

    def hook(time, tags):
        if asked and asked[-1] == time:
            raise RuntimeError("cut inside the tie group")
        asked.append(time)
        return len(tags) - 1

    def drive():
        scheduler.choice_hook = hook
        for offset, action in world.actions:
            scheduler.call_at(scheduler.now + offset, action)
        try:
            net.run(until=scheduler.now + 5.0)
        except RuntimeError:
            pass
        # The members that did not fire are pending again, on the heap.
        cut = [timer for time, _seq, timer in scheduler._queue if time == asked[-1]]
        assert len([timer for timer in cut if timer.pending]) >= 2

    return net, drive


LEGS = pytest.mark.parametrize(
    "leg",
    [
        cbt_n120,
        cbt_wire_format_figure1,
        dvmrp_prune_graft,
        explorer_world_cut_mid_tie_group,
        hpimdm_election,
        legacy_join_path,
    ],
    ids=lambda leg: leg.__name__,
)


@contextlib.contextmanager
def collector_off():
    """The collector disabled for the block; yields the function that
    ends it with one full ``DEBUG_SAVEALL`` collection and returns the
    census of what that found unreachable (empty: nothing)."""
    flags = gc.get_debug()
    gc.collect()
    gc.disable()

    def census():
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return dict(
            collections.Counter(type(obj).__name__ for obj in gc.garbage)
        )

    try:
        yield census
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()


@LEGS
def test_event_loop_makes_no_cyclic_garbage(leg):
    _net, drive = leg()
    with collector_off() as census:
        drive()
        assert census() == {}


# -- a network ends: closed or dropped, it leaves the collector no work --------
#
# ``Network.close()`` breaks every cycle the network owns, so a finished
# network is freed by refcount; that is what lets cells and builds run
# with the collector paused.  No allow-list: zero objects, every leg,
# every cell runner.


@LEGS
def test_closed_network_leaves_nothing_for_the_collector(leg):
    with collector_off() as census:
        net, drive = leg()
        drive()
        net.close()
        del net, drive
        assert census() == {}


def _explore(name):
    scenario = get_scenario(name)
    return lambda: run_schedule(
        scenario, (), scenario_options(scenario, max_decisions=3)
    )


CELL_RUNNERS = {
    "chaos_core_crash_waxman16": lambda: run_scenario(
        "core_crash", topology="waxman16", seed=3
    ),
    "baseline_compare": lambda: run_baseline_compare_cell(
        "router_crash", topology="figure1", seed=1
    ),
    "migration": lambda: run_migration_cell("figure1", seed=0),
    # Every explorer scenario: a whole search runs as one paused cell of
    # cells, so a cycle any one world left would pile up for max_runs.
    **{f"explore_{name}": _explore(name) for name in EXPLORE_SCENARIOS},
    # A whole search (6 runs).
    "explore_search_quit_race": lambda: explore(
        get_scenario("quit-race"),
        scenario_options(get_scenario("quit-race"), max_decisions=2),
    ),
    "flash_crowd_quick": lambda: run_flash_crowd_cell(
        "waxman16", seed=1, quick=True
    ),
    "churn_quick": lambda: run_churn_cell(
        "poisson", "waxman16", seed=1, quick=True
    ),
}


@pytest.mark.parametrize("runner", sorted(CELL_RUNNERS))
def test_cell_runner_leaves_nothing_for_the_collector(runner):
    with collector_off() as census:
        result = CELL_RUNNERS[runner]()
        assert census() == {}
    if runner == "chaos_core_crash_waxman16":
        # The cell that stands for the rest did inject faults, under
        # the auditor, and came back.
        assert result.faults and result.audit_checks > 0 and result.recovered


def test_dropped_network_frees_itself():
    """No ``close()`` call: the ``Network`` object sits outside the
    cycles it owns, so dropping it runs ``__del__`` -> ``close()`` at
    that instant, with the collector off."""
    with collector_off() as census:
        net, members, cores = TOPOLOGIES["waxman16"].build(3)
        domain, group = build_cbt_group(net, members, cores)
        send_data(net, members[0], group, count=2)
        watched = [
            weakref.ref(obj)
            for obj in (
                net,
                net.router("N0"),
                net.link("LAN_N0"),
                domain.protocol("N0"),
                net.scheduler,
            )
        ]
        del net, domain
        assert [ref() for ref in watched] == [None] * len(watched)
        assert census() == {}


@pytest.mark.parametrize("world", ["figure1_cell", "started_domain_120"])
def test_counters_read_the_same_after_close(world):
    if world == "figure1_cell":
        net = build_figure1()
        domain, group = build_cbt_group(net, FIGURE1_MEMBERS, ["R4", "R9"])
        send_data(net, "A", group, count=2)
        auditor = InvariantAuditor(domain, interval=0.5)
        auditor.start()
        net.fail_link("L_R3_R4")
        net.run(until=net.scheduler.now + 5.0)
    else:
        net, domain = started_domain(120)
    events = net.scheduler.events_processed
    snapshot = net.telemetry.registry.snapshot()
    assert events > 0 and snapshot["netsim.scheduler.pending_events"] > 0
    net.close()
    assert net.scheduler.events_processed == events
    assert net.telemetry.registry.snapshot() == snapshot


def test_cell_whose_auditor_trips_still_closes_and_hands_the_collector_back(
    monkeypatch,
):
    finding = Finding("error", "R1", None, "forced for the test")
    monkeypatch.setattr(audit, "check_invariants", lambda domain, now=None: [finding])
    built = []
    build = TOPOLOGIES["figure1"].build
    monkeypatch.setattr(
        TOPOLOGIES["figure1"],
        "build",
        lambda seed: built.append(build(seed)) or built[-1],
    )
    cell = run_scenario("link_flap", topology="figure1", seed=1)
    assert cell.violations == [str(finding)]
    (net, _members, _cores), = built
    assert net.scheduler.closed
    assert gc.isenabled()


def test_cell_that_raises_still_closes_and_hands_the_collector_back(monkeypatch):
    built = []
    build = TOPOLOGIES["figure1"].build
    monkeypatch.setattr(
        TOPOLOGIES["figure1"],
        "build",
        lambda seed: built.append(build(seed)) or built[-1],
    )
    monkeypatch.setitem(CHAOS_SCENARIOS, "link_flap", lambda context: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        run_scenario("link_flap", topology="figure1", seed=1)
    assert built[0][0].scheduler.closed
    assert gc.isenabled()


def test_no_collection_starts_inside_run():
    sched = Scheduler()
    live = []
    totals = []  # read by the first and the last event, so inside run()

    def step(remaining):
        if remaining in (19_999, 0):
            totals.append([g["collections"] for g in gc.get_stats()])
        live.append([remaining])  # a fresh GC-tracked object that survives
        if remaining:
            sched.call_later(0.001, step, remaining - 1)

    sched.call_later(0.0, step, 19_999)
    sched.run_until_idle()
    assert len(live) == 20_000
    assert totals[0] == totals[1]


# -- the data path's call budget ------------------------------------------------------


@pytest.mark.parametrize("mode", sorted(DATA_PATH_CALLS_PER_TRANSMISSION_CEILING))
def test_data_path_calls_per_transmission_under_ceiling(mode):
    net = build_figure1()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP, mode=mode)
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    net.run(until=3.0)
    for member in FIGURE1_MEMBERS:
        domain.join_host(member, group)
    net.run(until=net.scheduler.now + 3.0)

    entries = {
        entry.__code__
        for entry in (
            DataPlane.forward_multicast,
            DataPlane.handle_cbt_unicast,
            DataPlane.handle_ipip,
            DataPlane.intercept_unicast,
        )
    }
    depth = calls = 0

    def count(frame, event, _arg):
        nonlocal depth, calls
        if event == "call":
            if depth or frame.f_code in entries:
                depth += 1
                calls += 1
        elif event == "return" and depth:
            depth -= 1

    def work():
        return sum(
            p.data_plane.stats.total_router_work() for p in domain.protocols.values()
        )

    before = work()
    sys.setprofile(count)
    try:
        uids = send_data(net, "A", group, count=10)
    finally:
        sys.setprofile(None)
    transmissions = work() - before
    assert all(
        sum(d.uid == uid for d in net.host(member).delivered) == (member != "A")
        for uid in uids
        for member in FIGURE1_MEMBERS
    )
    assert transmissions >= 10 * len(FIGURE1_MEMBERS)
    per_transmission = calls / transmissions
    assert per_transmission < DATA_PATH_CALLS_PER_TRANSMISSION_CEILING[mode], (
        per_transmission
    )


# -- the keepalives' call budget -------------------------------------------------------
#
# Most events of a converging or idle domain are these two messages
# (docs/PERFORMANCE.md, "Decision record: packets are tuple records").
# The domain is never started, so the only events are the ones a round
# sends; two unmeasured rounds first, so every HELLO is from a known
# neighbour and every querier election is settled.


@pytest.fixture(scope="module")
def idle_n120():
    net = waxman_network(120, alpha=0.1, seed=5)
    net.trace.enabled = False
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    return net, list(domain.protocols.values())


def _hello_round(protocols):
    for protocol in protocols:
        protocol._hello_tick()


def _query_round(protocols):
    for protocol in protocols:
        for interface in protocol.router.interfaces:
            protocol.igmp._send_query(interface, None)


#: kind -> (send one round, messages sent so far).
_CONTROL_ROUNDS = {
    "hello": (
        _hello_round,
        lambda protocols: sum(p.stats.sent.get("HELLO", 0) for p in protocols),
    ),
    "query": (
        _query_round,
        lambda protocols: sum(p.igmp.queries_sent for p in protocols),
    ),
}


@pytest.mark.parametrize("kind", sorted(CONTROL_CALLS_PER_MESSAGE_CEILING))
def test_control_calls_per_message_under_ceiling(idle_n120, kind):
    net, protocols = idle_n120
    send, sent = _CONTROL_ROUNDS[kind]

    def one_round():
        send(protocols)
        net.run(until=net.scheduler.now + 0.1)  # past every link's delay

    one_round()
    one_round()
    before = sent(protocols)
    calls = _python_calls(one_round)
    messages = sent(protocols) - before
    assert messages == sum(len(p.router.interfaces) for p in protocols)
    per_message = calls / messages
    assert per_message < CONTROL_CALLS_PER_MESSAGE_CEILING[kind], per_message


# -- the observers' call budget -----------------------------------------------------
#
# What a look costs bounds how often the verification line can afford
# to look (docs/PERFORMANCE.md, "Decision record: observers read what
# exists").  Counted warm — the address index, the registry's name
# indexes and the shortest-path memo are built by the first look.


def _python_calls(work):
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def _observed_domain(size):
    """The three periodic looks at a settled domain with one 15-member
    group, each already taken once."""
    net = waxman_network(size, alpha=0.1, seed=5)
    net.trace.enabled = False
    members = pick_members(net, 15, seed=5)
    domain, group = build_cbt_group(
        net, members, [sorted(net.routers)[0]], timers=FAST_TIMERS
    )
    net.run(until=net.scheduler.now + 2.0)
    probe = QualityProbe(domain, group, source_host=members[0])
    for member in members:
        probe.note_join(member)
    looks = {
        "check_invariants": lambda: check_invariants(domain),
        "sample": probe.sample,
        "check_conservation": lambda: check_conservation(net, domain),
    }
    assert looks["check_invariants"]() == [] == looks["check_conservation"]()
    assert looks["sample"]().members == 15
    return looks


@pytest.fixture(scope="module")
def looks_n120():
    return _observed_domain(120)


@pytest.mark.parametrize("look", sorted(OBSERVER_CALLS_CEILING))
def test_observer_calls_under_ceiling(looks_n120, look):
    calls = _python_calls(looks_n120[look])
    assert calls < OBSERVER_CALLS_CEILING[look], calls


def test_invariant_sweep_costs_the_tree_not_the_domain(looks_n120):
    small = _python_calls(looks_n120["check_invariants"])
    large = _python_calls(_observed_domain(240)["check_invariants"])
    assert large < OBSERVER_CALLS_DOUBLING_CEILING * small, (small, large)


# -- a search's call budget ---------------------------------------------------------
#
# Every backward-search candidate is confirmed by a forward run, so what
# a run costs per event bounds how far the verification line can search
# (docs/PERFORMANCE.md, "Decision record: a verification run pays for
# what it reads").


def test_explore_calls_per_event_under_ceiling():
    scenario = get_scenario("joins-race")
    options = scenario_options(scenario, max_decisions=3)
    explore(scenario, options)  # lazy imports and caches land first
    gc.collect()  # a world some earlier test dropped closes now, not below
    close = Scheduler.close.__code__
    calls = events = 0

    def count(frame, event, _arg):
        nonlocal calls, events
        if event == "call" or event == "c_call":
            calls += 1
            if frame.f_code is close and event == "call":  # one per world
                events += frame.f_locals["self"].events_processed

    sys.setprofile(count)
    try:
        result = explore(scenario, options)
    finally:
        sys.setprofile(None)
    assert result.exhausted and result.ok and result.stats.runs == 53
    assert events == 20_090
    per_event = calls / events
    assert per_event < EXPLORE_CALLS_PER_EVENT_CEILING, per_event
