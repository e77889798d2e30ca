"""Allocation budget of the event path (docs/PERFORMANCE.md,
"Allocation and the collector").

What is pending at scale is what the cyclic collector keeps walking, so
the rule is: schedule with args, bind gauges by attribute, never a
per-event (or per-link) closure.  These tests are the guard that keeps
the next ``_make_*`` lambda out of the event path: they look at the
live heap of a started 120-router domain rather than at the source.
"""

import gc
import types

import pytest

from repro.core.bootstrap import CBTDomain
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, pick_members
from repro.netsim.address import group_address
from repro.netsim.link import Link
from repro.topology.generators import waxman_network

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
#: one record per scheduled event this tree measures 66.8 / 66.6
#: (seeds 5 / 17; 75.2 with an event record plus a handle); the
#: ceiling is that plus 10 %.
TRACKED_PER_LINK_CEILING = 73.0


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
