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

Last, three fast paths held against their slow references by counts
that do not drift with the host: route lookup, registry totals and
the registry's counter guard by Python calls that must not grow with
the table or the registry (which holds one family per class), and
the per-packet records by the blocks one build allocates; and the
bytes a pending one-event instant costs the scheduler.
"""

import collections
import contextlib
import gc
import sys
import tracemalloc
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
from repro.netsim.engine import Scheduler, Timer
from repro.netsim.link import Link
from repro.telemetry.registry import FamilyNameError
from repro.telemetry.conservation import check_conservation
from repro.topology.figures import FIGURE1_MEMBERS, build_figure1
from repro.topology.generators import (
    BULK_TOPOLOGY_MIN,
    realise,
    waxman_graph,
    waxman_network,
)
from repro.topology.graph import Graph
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
#: ``gauge_attrs`` entry until something reads them, this tree measured
#: 60.0 / 59.9 (seeds 5 / 17; 65.0 / 64.9 with six ``Gauge`` objects
#: per link from the start, 75.2 with an event record plus a handle;
#: packets in flight are tracked tuples where they were tracked
#: instances, so the tuple records did not move it), and 31.9 / 31.7
#: once HELLOs and IGMP queries went on multi-access links only.  With
#: every router's, IGMP agent's and IGMP host's statistics plain
#: attributes of one small stats object each, read as one registry
#: family, where each was a registry ``Counter``, it measures
#: 29.9 / 29.7; the ceiling is that plus 10 %.  A link's ``deliver``,
#: bound once for every transmission to schedule, is one more: 30.9.
#: With no drop-counter dict until a link drops, one link-state
#: topology view (no interface maps) and no routing table per host it
#: measured 27.5 / 27.3.  With no address-to-interface dict per link,
#: its one topology observer held without a tuple and names, not
#: ``(name, interface)`` pairs, in the prefix map it measures
#: 23.5 / 23.3.  With one registry family per class, its objects in a
#: list, where each link, router and host had a ``(object, kind)``
#: entry under its own prefix, it measures 22.1 / 21.9; the ceiling is
#: that plus 10 %.
TRACKED_PER_LINK_CEILING = 24.3

#: Bytes (``tracemalloc``) a started bulk world may hold per router and
#: per link: ``waxman_network(600, alpha=0.02)`` (600 routers, 2,109
#: links; at least ``BULK_TOPOLOGY_MIN``, so the on-demand routing view
#: is in) built and its ``CBTDomain`` started.  With one link-state
#: topology view, a CBT engine under the shared-key limit, slotted
#: interfaces, no empty drop-counter dict per link and no routing table
#: per host it measured 16,893 / 4,806 (20,308 / 5,777 with link-state
#: routing's five derived maps, a 33-attribute engine, dict-backed
#: interfaces and those containers).  With no address-to-interface dict
#: per link, no one-observer tuple, a prefix map of router names keyed
#: by the link's own address, slotted tickers and no unread unicast list
#: per host it measures 15,199 / 4,324 (16,960 / 4,825 without, on the
#: same machine).  With one registry family per class, naming each
#: member off the object, where each link, router and host had a
#: prefix string and an ``(object, kind)`` entry, it measures
#: 14,210 / 4,043 (15,115 / 4,300 without, on the same machine); the
#: ceiling is that plus 10 %.
BULK_WORLD_BYTES_CEILING = {"router": 15630, "link": 4450}

#: Instance attributes an object built once per router, host, link or
#: interface may keep, unless its class is slotted.  CPython (3.11)
#: keeps an instance's attribute values in a plain array behind its
#: class's shared keys (PEP 412) while that key table has fewer than 30
#: entries, about 330 bytes for a 29-attribute object; the 30th key
#: gives every instance a private dict of its own, about 1,650 bytes.
#: One below the limit, so an added attribute fails here first.
SHARED_KEY_ATTRIBUTES_CEILING = 28

#: Python calls the data plane may make per transmission (a tree
#: forward or a member-LAN delivery), counted from its entry points
#: down through the link and the scheduler.  Forwarding from the
#: downloaded kernel entry, copying tuple records, scheduling straight
#: from ``Link.transmit`` and hashing addresses as ints, this tree
#: measured 18.8 in CBT mode and 18.5 native (22.2 / 20.7 with the
#: standard library's address type; 26.1 / 24.7 with dataclass packets
#: and a ``call_later`` / ``_record`` frame per transmission; 35.6 /
#: 34.8 when every packet also re-derived its fan-out and copied headers
#: through ``dataclasses.replace``).  With one fan-out frame per mode, a
#: hop copied by one ``tuple.__new__``, and every datagram carrying the
#: wire size its constructor derived, it measures 12.9 in CBT mode and
#: 13.7 native; the ceiling is that plus 10 %.
DATA_PATH_CALLS_PER_TRANSMISSION_CEILING = {"cbt": 14.3, "native": 15.1}

#: Python calls one keepalive may make from its sender's tick to its
#: receivers' handlers (tick -> ``transmit`` -> ``deliver`` ->
#: ``_recv_hello`` / ``_handle_query``), per message sent, on the
#: 120-router world below with every neighbour already known.  Built as
#: tuple records, sent without pass-through frames and keyed by int
#: addresses this tree measures 17.7 per HELLO and 18.0 per general
#: query (20.9 / 23.2 with the standard library's address type; 33.2 /
#: 30.9 when each was three frozen dataclasses built through
#: ``make_udp`` / keywords and scheduled through ``call_later``); the
#: ceiling is that plus 10 %.  Since a HELLO goes on multi-access links
#: only, a round sends 120 of them instead of 676, so each carried its
#: router's whole tick (neighbour expiry, the chunked announcement):
#: 19.06 per HELLO, under the same ceiling.  Since a LAN with no CBT
#: neighbour gets one HELLO per hold time, a tick on the host-only LANs
#: of that world sends none, so the HELLO round is driven through the
#: sender ``_send_hellos`` on a world whose LANs each join two routers
#: and no host, every HELLO read by a CBT peer: 18.05 per HELLO (a
#: whole tick there reads 21.05: the expiry and the rule are per tick,
#: not per message), and a query 17.66.  Since a datagram derives its
#: wire size once, in its constructor, where each transmission asked
#: the datagram and then its payload, they measure 17.06 per HELLO and
#: 16.66 per query; the ceiling is that plus 10 %.
CONTROL_CALLS_PER_MESSAGE_CEILING = {"hello": 18.8, "query": 18.4}

#: Python calls one look may cost on a settled 120-router domain
#: (``waxman_network(120, alpha=0.1)``, 398 links) carrying one
#: 15-member group on a 28-router tree.  Reading the domain's address
#: index, visiting only routers that hold state and summing the
#: counters ``ControlStats`` holds, this tree measures 594 / 886 /
#: 10,318 (839 / 971 / 10,362 with the standard library's address type;
#: 2,948 / 3,872 / 17,812 when every look re-walked every interface,
#: re-ran Dijkstra and pattern-queried the registry per router and per
#: link); the ceiling is that plus 10 %.  Since conservation reads each
#: link's wire statistics from the link and only the drop counters that
#: exist, building no gauge, it measures 7,816, and 309 / 296 / 4,415
#: with no HELLO or IGMP query on a point-to-point link.  With the
#: per-router statistics read as attributes (the IGMP and histogram
#: laws by ``MetricsRegistry.columns``, the FIB and membership laws off
#: the FIB and the IGMP agent, no name built per router) and the
#: probe's histograms found once, ``sample`` and ``check_conservation``
#: measure 287 / 2,227; their ceilings are that plus 10 %.
OBSERVER_CALLS_CEILING = {
    "check_invariants": 653,
    "sample": 316,
    "check_conservation": 2450,
}

#: Profiled calls (Python and C, as ``cProfile`` counts them) one search
#: may make per simulated event: ``explore`` of ``joins-race`` at
#: ``max_decisions=3`` (53 runs, 28,768 events), counted warm.  With
#: Figure 1 built untraced and each tie group drawn from the heap once
#: this tree measures 50.12 (61.45 when every world kept a packet trace
#: and every firing re-drew and re-pushed its whole tie group); the
#: ceiling is that plus 10 %.  Since a search simulates each schedule
#: once (37 simulations for the 53 runs) it reads 20,090 events at 49.04
#: calls per event; the ceiling stays.  With no HELLO on a
#: point-to-point link it reads 17,870 events at 48.04, and with no
#: IGMP query there either 15,206 events at 49.35 (the queries were
#: cheap events), and with one HELLO per hold time on a LAN no CBT
#: router shares 14,392 events at 49.92.
EXPLORE_CALLS_PER_EVENT_CEILING = 55.1

#: ``check_invariants`` on 240 routers (1,439 links, a 36-router tree
#: for the same 15 members) against the 120-router count: the cost
#: follows the tree, not the domain (measured 873 / 594 = 1.47, of
#: which 1.29 is the tree itself; 1,213 / 839 = 1.45 with the standard
#: library's address type, 8,024 / 2,948 = 2.72 before).
OBSERVER_CALLS_DOUBLING_CEILING = 1.5

#: Python calls 256 distinct route lookups may make, first on a cold
#: memo and then warm, on a table of /24 routes.  The prefix-length
#: index and the memo cost the same at 256 and 4,096 routes (513 / 257
#: measured at both); ``lookup_linear``, the reference scan, makes
#: 66,049 at 256 routes and grows with the table.  The ceiling is the
#: measurement plus 10 %.
ROUTE_LOOKUP_CALLS_CEILING = {"cold": 565, "warm": 283}

#: Python calls one ``total("cbt.router.*.k3")`` may make, warm, on a
#: registry holding eight counters for each of 500 routers: the
#: literal-tail index visits the 500 matching names only (1,023
#: measured, with or without 9,000 non-matching names beside them; the
#: ``fnmatchcase`` scan over every name costs in proportion to the
#: registry).  The ceiling is the measurement plus 10 %.
REGISTRY_TOTAL_CALLS_CEILING = 1125

#: Allocated blocks (``tracemalloc``) one build of a record may leave
#: behind: the HELLO and the IGMP general query an idle domain sends,
#: and a data packet's per-hop copy.  As tuple records these measure
#: 3.75 / 3.0 / 3.0 per build; the frozen dataclasses they replaced
#: (``tests/reference_records``) 6.75 / 5.0 / 5.0.  The ceiling is the
#: measurement plus 10 %, below the reference.
RECORD_BLOCKS_CEILING = {"hello": 4.1, "query": 3.3, "hop_copy": 3.3}

#: Bytes (``tracemalloc``) one pending one-event instant may cost, its
#: ``Timer`` included: the record, its float key, a ``_slots`` entry, a
#: heap entry and the test's own handle.  159 measured over 5,000 far
#: instants; wrapping each in a one-element ``deque`` costs 760 bytes
#: more (docs/PERFORMANCE.md, "one queue, no wheel").  The ceiling is
#: the measurement plus a quarter.
ONE_EVENT_INSTANT_BYTES_CEILING = 200


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
    # Timers are armed: each router's four CBT tickers and the IGMP
    # query ticker of its one LAN (a point-to-point link gets none).
    assert net.scheduler.pending_events == 5 * len(net.routers) == 600
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
        for slot in net.scheduler._slots.values()
        for timer in ((slot,) if isinstance(slot, Timer) else slot)
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


def test_bulk_world_bytes_per_router_and_link_under_ceiling():
    def build():
        net = waxman_network(600, alpha=0.02, seed=5)
        CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP).start()
        return net

    build().close()  # lazy imports and caches land before the count
    tracemalloc.start()
    try:
        net = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(net.routers) >= BULK_TOPOLOGY_MIN
    per = {"router": held / len(net.routers), "link": held / len(net.links)}
    net.close()
    assert all(per[k] < BULK_WORLD_BYTES_CEILING[k] for k in per), per


def _instances_by_class(*roots):
    """``repro`` objects reachable from ``roots`` through instance
    attributes, slots and containers, by class."""
    seen, by_class, todo = set(), collections.defaultdict(list), list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, collections.deque)):
            todo.extend(obj)
        elif isinstance(obj, types.MethodType):
            todo.append(obj.__self__)
        elif type(obj).__module__.startswith("repro."):
            by_class[type(obj)].append(obj)
            todo.extend(getattr(obj, "__dict__", {}).values())
            todo.extend(
                getattr(obj, slot)
                for klass in type(obj).__mro__
                for slot in klass.__dict__.get("__slots__", ())
                if hasattr(obj, slot)
            )
    return by_class


def test_per_entity_objects_stay_under_the_shared_key_limit():
    """Every class of a started world with an instance per router (or
    more: per host, link or interface) is slotted or keeps at most
    ``SHARED_KEY_ATTRIBUTES_CEILING`` attributes per instance."""
    net, domain = started_domain(24)
    per_entity = {
        klass: objects
        for klass, objects in _instances_by_class(net, domain).items()
        if len(objects) >= len(net.routers)
    }
    assert {klass.__name__ for klass in per_entity} >= {
        "CBTProtocol", "Router", "Host", "Subnet", "PointToPointLink", "Interface",
    }
    widest = {
        klass.__qualname__: max(len(vars(obj)) for obj in objects)
        for klass, objects in per_entity.items()
        if hasattr(objects[0], "__dict__")
    }
    assert {
        name: width
        for name, width in widest.items()
        if width > SHARED_KEY_ATTRIBUTES_CEILING
    } == {}, widest
    net.close()


def test_started_domain_holds_no_per_router_counter(world):
    """A router's and an IGMP agent's statistics are attributes of a
    small stats object each (``TreeStats``, ``IGMPStats``,
    ``IGMPHostStats``), registered as one family: the only ``Counter``
    objects under a router's name are the message and event counts made
    on first use (``ControlStats``, ``_record``)."""
    net, domain, _ = world
    counters = net.telemetry.registry._counters
    assert [name for name in counters if name.startswith("igmp.")] == []
    made_on_use = ("tx", "rx", "event")
    assert [
        name
        for name in counters
        if name.startswith("cbt.router.") and name.split(".")[3] not in made_on_use
    ] == []
    snapshot = net.telemetry.registry.snapshot()
    for name, protocol in domain.protocols.items():
        assert snapshot[f"cbt.router.{name}.fib_adds"] == protocol.fib.fib_adds
        assert snapshot[f"cbt.router.{name}.joins_completed"] == (
            protocol.tree_stats.joins_completed
        )
        assert snapshot[f"igmp.router.{name}.tx.query"] == protocol.igmp.stats.queries_sent


def test_counter_refuses_a_family_statistic_name(world):
    net, domain, _ = world
    registry = net.telemetry.registry
    router, host = sorted(domain.protocols)[0], sorted(domain.host_agents)[0]
    link = sorted(net.links)[0]
    for name in (
        f"cbt.router.{router}.fib_adds",
        f"cbt.router.{router}.joins_completed",
        f"igmp.router.{router}.rx.report",
        f"igmp.host.{host}.tx.leave",
        f"netsim.link.{link}.attempts",
        "netsim.scheduler.events_processed",
    ):
        with pytest.raises(FamilyNameError):
            registry.counter(name)
        assert name not in registry._counters
    # A name beside a family's statistics is a counter like any other.
    assert registry.counter(f"igmp.router.{router}.rx.other").value == 0


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
        return {e.kind for e in domain.telemetry.bus.records("protocol")}

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
        # The members that did not fire are still pending, in their
        # instant's slot, and the instant is still on the heap.
        cut = scheduler._slots[asked[-1]]
        assert asked[-1] in scheduler._queue
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


def _idle(net):
    net.trace.enabled = False
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    return net, list(domain.protocols.values())


@pytest.fixture(scope="module")
def idle_n120():
    return _idle(waxman_network(120, alpha=0.1, seed=5))


@pytest.fixture(scope="module")
def paired_lans_n120():
    """The same 120 routers, with ``N0``/``N1``, ``N2``/``N3``, ...
    sharing one LAN each in place of the host LANs: every HELLO has a
    CBT reader."""
    net = realise(waxman_graph(120, alpha=0.1, seed=5), with_hosts=False)
    for pair in range(60):
        net.add_subnet(f"LAN_{pair}", [net.router(f"N{2 * pair + i}") for i in (0, 1)])
    net.converge()
    return _idle(net)


def _hello_round(protocols):
    for protocol in protocols:
        protocol._send_hellos()


def _query_round(protocols):
    for protocol in protocols:
        for interface in protocol.router.interfaces:
            protocol.igmp._send_query(interface, None)


#: kind -> (world, send one round, messages sent so far, whether a
#: round sends one on a given link).
_CONTROL_ROUNDS = {
    "hello": (
        "paired_lans_n120",
        _hello_round,
        lambda protocols: sum(p.stats.sent.get("HELLO", 0) for p in protocols),
        lambda link: link.multi_access,
    ),
    "query": (
        "idle_n120",
        _query_round,
        lambda protocols: sum(p.igmp.stats.queries_sent for p in protocols),
        lambda link: True,
    ),
}


@pytest.mark.parametrize("kind", sorted(CONTROL_CALLS_PER_MESSAGE_CEILING))
def test_control_calls_per_message_under_ceiling(request, kind):
    world, send, sent, sends_on = _CONTROL_ROUNDS[kind]
    net, protocols = request.getfixturevalue(world)

    def one_round():
        send(protocols)
        net.run(until=net.scheduler.now + 0.1)  # past every link's delay

    one_round()
    one_round()
    before = sent(protocols)
    calls = _python_calls(one_round)
    messages = sent(protocols) - before
    assert messages == sum(
        sends_on(interface.link) for p in protocols for interface in p.router.interfaces
    )
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
    domain, group = build_cbt_group(net, members, [sorted(net.routers)[0]])
    net.run(until=net.scheduler.now + 2.0)
    probe = QualityProbe(domain, group, source_host=members[0])
    for member in members:
        probe.note_join(member)
    looks = {
        "check_invariants": lambda: check_invariants(domain),
        "sample": probe.sample,
        "check_conservation": lambda: check_conservation(net, domain),
        "snapshot": net.telemetry.registry.snapshot,
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


def test_observers_build_no_gauge(looks_n120):
    """The conservation laws, a probe sample and a registry snapshot
    read every attribute family in place."""
    assert looks_n120["check_conservation"]() == []
    looks_n120["sample"]()
    assert len(looks_n120["snapshot"]()) > 0


def test_probe_samples_after_the_first_compute_no_dijkstra(looks_n120, monkeypatch):
    """The probe's graph and the tree's root stand still, so every
    shortest-path map a sample reads after the first comes from the
    graph's memo (``Graph._paths``)."""
    asked, computed = [], []
    dijkstra = Graph.dijkstra

    def counted(graph, source, weight="cost"):
        asked.append((source, weight))
        if (source, weight) not in graph._paths:
            computed.append((source, weight))
        return dijkstra(graph, source, weight)

    monkeypatch.setattr(Graph, "dijkstra", counted)
    for _ in range(3):
        assert looks_n120["sample"]().stretch_max >= 1.0
    assert len(asked) >= 6 and computed == []


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
    assert events == 14_392
    per_event = calls / events
    assert per_event < EXPLORE_CALLS_PER_EVENT_CEILING, per_event


# -- fast paths against their references ------------------------------------------
#
# A timed ratio to the reference drifts with the host; a count that stays
# flat as the table or registry grows, or a per-build block count below
# the reference's, does not.


def _route_lookup_calls(routes):
    """Python calls of 256 distinct lookups, cold then warm, on a table
    of ``routes`` /24 prefixes."""
    from repro.netsim.address import IPv4Address, IPv4Network
    from repro.routing.table import Route, RoutingTable
    from repro.topology.builder import Network

    net = Network(trace_enabled=False)
    router = net.add_router("r")
    net.add_subnet("lan", [router])
    interface = router.interfaces[0]
    table = RoutingTable()
    base = int(IPv4Address("10.0.0.0"))
    for index in range(routes):
        table.install(Route(IPv4Network((base + (index << 8), 24)), interface, None, 1.0))
    targets = [
        IPv4Address(base + 7 + ((index * 37 % routes) << 8)) for index in range(256)
    ]

    def lookups():
        for target in targets:
            table.lookup(target)

    return {"cold": _python_calls(lookups), "warm": _python_calls(lookups)}


def test_route_lookup_calls_do_not_grow_with_the_table():
    small, large = _route_lookup_calls(256), _route_lookup_calls(4096)
    assert small == large
    for kind, calls in large.items():
        assert calls < ROUTE_LOOKUP_CALLS_CEILING[kind], (kind, calls)


def test_registry_total_calls_follow_the_matches_not_the_registry():
    from repro.telemetry import MetricsRegistry

    wire_metrics = (("tx_packets", "tx_count"),)

    def add_link(name, tx_count):
        wire = types.SimpleNamespace(name=name, tx_count=tx_count)
        registry.gauge_attrs("netsim.link.", wire, wire_metrics)

    registry = MetricsRegistry()
    for router in range(500):
        for kind in range(8):
            registry.counter(f"cbt.router.N{router}.k{kind}").value += router
    add_link("L", 0)  # a registry with families consults them once per query

    def total():
        assert registry.total("cbt.router.*.k3") == sum(range(500))

    total()  # the index is built by the first query
    alone = _python_calls(total)
    for router in range(1000):
        for kind in range(8):
            registry.counter(f"cbt.router.N{router}.j{kind}").inc()
        add_link(f"L{router}", router)
    total()
    crowded = _python_calls(total)
    assert alone == crowded < REGISTRY_TOTAL_CALLS_CEILING, (alone, crowded)


def test_a_started_world_registers_one_family_per_class(world):
    """A link, router or host joins its class's family; the world's
    size adds members, not families."""
    net, _, _ = world
    small, _ = started_domain(24)
    heads = ["cbt.router.", "igmp.host.", "igmp.router.", "netsim.", "netsim.link."]
    for registry in (small.telemetry.registry, net.telemetry.registry):
        assert sorted(registry._families) == heads
    assert len(small.telemetry.registry._families["netsim.link."].objects) == len(small.links)
    small.close()


def test_counter_guard_calls_do_not_grow_with_the_links():
    """``counter()`` tells a fresh name from a family statistic by the
    name's form: the same Python calls beside 10 links as beside 2,000,
    for a counter it makes and for one it refuses."""
    from repro.telemetry import MetricsRegistry

    wire_metrics = (("attempts", "attempt_count"), ("tx_packets", "tx_count"))

    def guard_calls(links):
        registry = MetricsRegistry()
        for index in range(links):
            wire = types.SimpleNamespace(name=f"L{index}", attempt_count=0, tx_count=0)
            registry.gauge_attrs("netsim.link.", wire, wire_metrics)
        scheduler = types.SimpleNamespace(name="scheduler", n=0)
        registry.gauge_attrs("netsim.", scheduler, (("sim_time", "n"),))

        def refused():
            with pytest.raises(FamilyNameError):
                registry.counter("netsim.link.L3.attempts")

        return [
            _python_calls(lambda: registry.counter("netsim.link.L3.drop.late")),
            _python_calls(lambda: registry.counter("netsim.msg.Hello.attempts")),
            _python_calls(refused),
        ]

    assert guard_calls(10) == guard_calls(2000)


def _record_builds():
    """name -> (live build, reference build), each returning its record."""
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
    packet = CBTDataPacket(group, there, here, b"x" * 64, ip_ttl=32)
    packet_was = was.CBTDataPacket(group, there, here, b"x" * 64, ip_ttl=32)

    def hello():  # CBTProtocol._send_hello
        message = CBTControlMessage(MessageType.HELLO, 0, any_group, here, cores=())
        udp = UDPDatagram(CBT_PORT, CBT_PORT, message)
        return IPDatagram(here, ALL_CBT_ROUTERS, PROTO_UDP, udp, 1)

    def hello_was():
        message = was.CBTControlMessage(
            msg_type=MessageType.HELLO, code=0, group=any_group, origin=here, cores=()
        )
        return was.make_udp(
            src=here, dst=ALL_CBT_ROUTERS, sport=CBT_PORT, dport=CBT_PORT,
            payload=message, ttl=1,
        )

    def query():  # IGMPRouterAgent._send_query
        return IPDatagram(here, ALL_SYSTEMS, PROTO_IGMP, MembershipQuery(None, 3.0), 1)

    def query_was():
        return was.IPDatagram(
            src=here, dst=ALL_SYSTEMS, proto=PROTO_IGMP,
            payload=was.MembershipQuery(group=None, max_response_time=3.0), ttl=1,
        )

    def hop_copy():  # DataPlane._receive_cbt + _forward_cbt
        return IPDatagram(here, there, PROTO_CBT, packet.decremented())

    def hop_copy_was():
        return was.IPDatagram(
            src=here, dst=there, proto=PROTO_CBT, payload=packet_was.decremented()
        )

    return {
        "hello": (hello, hello_was),
        "query": (query, query_was),
        "hop_copy": (hop_copy, hop_copy_was),
    }


def _blocks_per_build(build, builds=1000):
    """Blocks still allocated per record after ``builds`` kept builds."""
    build()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        kept = [build() for _ in range(builds)]
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(kept) == builds
    return sum(stat.count_diff for stat in after.compare_to(before, "filename")) / builds


@pytest.mark.parametrize("name", sorted(RECORD_BLOCKS_CEILING))
def test_record_builds_allocate_less_than_the_dataclasses(name):
    live, reference = _record_builds()[name]
    ceiling = RECORD_BLOCKS_CEILING[name]
    assert _blocks_per_build(live) < ceiling < _blocks_per_build(reference)


def test_a_pending_one_event_instant_holds_no_container():
    # Far keepalives spread over thousands of instants with one event
    # each; the slot of such an instant is its ``Timer``, nothing more.
    scheduler = Scheduler()
    scheduler.call_later(1.0, print)  # the heap and the slot map exist
    instants = 5000
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        timers = [scheduler.call_later(10.0 + i * 0.001, print) for i in range(instants)]
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert all(scheduler._slots[timer.fires_at] is timer for timer in timers)
    size = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert size / instants < ONE_EVENT_INSTANT_BYTES_CEILING, size / instants
    scheduler.close()
