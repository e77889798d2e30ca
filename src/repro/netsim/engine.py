"""Deterministic discrete-event scheduler.

The scheduler is a priority queue keyed on ``(time, sequence)`` so that
events scheduled for the same instant fire in the order they were
scheduled.  Determinism matters: protocol traces captured by the tests
must be byte-for-byte reproducible across runs.

Performance notes (see docs/PERFORMANCE.md):

* ``_Event`` uses ``__slots__`` and records are slab-allocated: fired
  and dropped events return to a free list and are reused, so steady
  state allocates no event objects at all.  A per-event ``gen``
  (generation) counter keeps outstanding :class:`Timer` handles safe —
  a handle whose generation no longer matches its event is simply
  spent.
* Far-future events (keepalive, retry, and hello timers — the bulk of
  the pending population at scale) park in a coarse timer wheel
  instead of the heap.  Wheel entries keep their original
  ``(time, seq)`` keys and every bucket is flushed into the heap
  strictly before it can contain the head event, so pop order is
  *identical* to the pure-heap engine — the wheel is invisible to
  traces.  Cancelling a parked timer is an O(1) flag; the event never
  touches the heap, which is the win for churny keepalives that re-arm
  and cancel far more often than they fire.
* Cancelled events that did reach the heap are compacted out once they
  exceed both ``_COMPACT_MIN`` and half the queue.  Compaction cannot
  change firing order: entries are totally ordered by the unique
  ``(time, seq)`` key, so a re-heapified queue pops in exactly the
  same sequence.
* ``pending_events`` is a live counter and ``pending_tags()`` reads a
  live tag index — neither scans the heap.
* An event carries its callback's arguments (``call_later(delay, f,
  *args)``; the loop calls ``f(*args)``), so callers schedule a bound
  method plus a tuple instead of building a closure per event.  What
  is pending is what the cyclic collector walks: at n=1000 tens of
  thousands of deliveries and timers are in flight, and a closure is
  a function, a cell per variable and a tuple where an args tuple is
  one object.  ``_free_event`` clears ``args`` so the slab never pins
  a delivered datagram.

Choice-point hook layer (systematic exploration):

Events scheduled for the same instant normally fire in FIFO order.
Installing a ``choice_hook`` hands that tie-breaking decision to an
external resolver: before firing, the scheduler gathers every pending
event with the head timestamp (the *tie group*) and asks the hook
which fires first.  The state-space explorer (:mod:`repro.explore`)
uses this to enumerate message-delivery and timer-firing orders; with
no hook installed the fast path is a single attribute check.  Events
may carry an optional ``tag`` describing what firing them means
(links tag deliveries) so resolvers can tell deliveries from opaque
timer callbacks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry import Telemetry

#: Compact the heap only once at least this many cancelled events have
#: accumulated (and they make up more than half the queue).
_COMPACT_MIN = 64

#: Timer-wheel bucket width in simulation seconds.  Events at least two
#: buckets in the future park in the wheel; nearer events (packet
#: deliveries are milliseconds) go straight to the heap.
_WHEEL_GRANULARITY = 0.25
_INV_GRANULARITY = 1.0 / _WHEEL_GRANULARITY

#: Cap on the event free list; beyond this, spent events are left to
#: the garbage collector (bounds memory after a burst).
_SLAB_MAX = 8192


class SchedulerError(Exception):
    """Raised on invalid scheduler operations (e.g. scheduling in the past)."""


class _Event:
    __slots__ = (
        "time", "callback", "args", "cancelled", "fired", "tag", "gen", "parked"
    )

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple,
        tag: Optional[Tuple] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.tag = tag
        self.gen = 0
        self.parked = False


class Timer:
    """Handle for a scheduled event that can be cancelled or restarted.

    A ``Timer`` is returned by :meth:`Scheduler.call_later`.  Cancelling
    an already-fired or already-cancelled timer is a no-op, which keeps
    protocol code free of "is it still pending?" bookkeeping.

    The handle snapshots the callback, its arguments, the tag and the
    firing time at creation: event records are slab-recycled after they
    fire, so the handle must not read them back from a possibly-reused
    record.
    """

    __slots__ = (
        "_scheduler", "_event", "_gen", "_callback", "_args", "_tag", "_fires_at"
    )

    def __init__(self, scheduler: "Scheduler", event: _Event) -> None:
        self._scheduler = scheduler
        self._event = event
        self._gen = event.gen
        self._callback = event.callback
        self._args = event.args
        self._tag = event.tag
        self._fires_at = event.time

    @property
    def fires_at(self) -> float:
        """Absolute simulation time at which the timer fires."""
        return self._fires_at

    @property
    def pending(self) -> bool:
        """True while the timer has neither fired nor been cancelled."""
        event = self._event
        return (
            event.gen == self._gen and not event.cancelled and not event.fired
        )

    def cancel(self) -> None:
        """Cancel the timer; safe to call at any time."""
        event = self._event
        if event.gen == self._gen:
            self._scheduler._cancel(event)

    def restart(self, delay: float) -> "Timer":
        """Cancel this timer and schedule its callback (same arguments,
        same tag) again after ``delay``."""
        self.cancel()
        return self._scheduler.call_later(
            delay, self._callback, *self._args, tag=self._tag
        )


class Scheduler:
    """Priority-queue discrete-event loop.

    Usage::

        sched = Scheduler()
        sched.call_later(1.5, print, "fires at t=1.5")
        sched.run(until=10.0)
    """

    def __init__(self, telemetry_enabled: bool = True) -> None:
        self._queue: List[Tuple[float, int, _Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._pending = 0
        self._cancelled_in_heap = 0
        # Timer wheel: bucket index -> unsorted entry list, plus a
        # bucket-index heap for "earliest bucket" and a cached start
        # time of that bucket (inf when the wheel is empty) so the run
        # loop pays one float compare per event in the common case.
        self._wheel: Dict[int, List[Tuple[float, int, _Event]]] = {}
        self._wheel_buckets: List[int] = []
        self._wheel_next_start = float("inf")
        # Event slab (free list) for reuse.
        self._slab: List[_Event] = []
        # Live index of pending tagged events (tag lookups must not
        # scan the heap): event -> tag.
        self._tagged: Dict[_Event, Tuple] = {}
        #: Engine accounting (always on — plain integer bumps): these
        #: obey scheduled == processed + cancelled + pending, checked
        #: by :mod:`repro.telemetry.conservation`.
        self.events_scheduled = 0
        self.events_cancelled = 0
        #: Observability bundle shared by everything holding this
        #: scheduler (links, routers, protocols, IGMP agents).
        self.telemetry = Telemetry(enabled=telemetry_enabled)
        registry = self.telemetry.registry
        for metric, attr in (
            ("events_scheduled", "events_scheduled"),
            ("events_processed", "_events_processed"),
            ("events_cancelled", "events_cancelled"),
            ("pending_events", "_pending"),
            ("sim_time", "_now"),
        ):
            registry.gauge_attr(f"netsim.scheduler.{metric}", self, attr)
        #: When set, same-instant tie groups of size >= 2 are resolved
        #: by this callable instead of FIFO order.  It receives
        #: ``(time, [tag, ...])`` — one entry per tied event, in FIFO
        #: order, ``None`` for untagged events — and returns the index
        #: of the event to fire first.  Remaining tied events re-enter
        #: the queue unchanged, so the resolver is asked again until
        #: the group drains (enumerating a full ordering).
        self.choice_hook: Optional[Callable[[float, List[Optional[Tuple]]], int]] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue."""
        return self._pending

    def call_later(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        tag: Optional[Tuple] = None,
    ) -> Timer:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Pass what the callback needs as ``args`` rather than binding it
        in a closure: an args tuple is one object, a closure is a
        function plus a cell per variable, and pending events are what
        the collector has to keep walking (docs/PERFORMANCE.md)."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule {delay}s in the past")
        return self._schedule(self._now + delay, callback, args, tag)

    def call_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        tag: Optional[Tuple] = None,
    ) -> Timer:
        """Schedule ``callback(*args)`` to run at absolute simulation ``time``."""
        if time < self._now:
            raise SchedulerError(
                f"cannot schedule at t={time}; current time is t={self._now}"
            )
        return self._schedule(time, callback, args, tag)

    def _schedule(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple,
        tag: Optional[Tuple],
    ) -> Timer:
        slab = self._slab
        if slab:
            event = slab.pop()
            event.time = time
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.fired = False
            event.tag = tag
            event.parked = False
        else:
            event = _Event(time, callback, args, tag)
        bucket = int(time * _INV_GRANULARITY)
        if bucket > int(self._now * _INV_GRANULARITY) + 1:
            # Far enough out to park in the wheel: the bucket's start
            # lies strictly in the future, so it will be flushed into
            # the heap before simulation time can reach any of its
            # events.
            event.parked = True
            entries = self._wheel.get(bucket)
            if entries is None:
                entries = self._wheel[bucket] = []
                heapq.heappush(self._wheel_buckets, bucket)
                start = bucket * _WHEEL_GRANULARITY
                if start < self._wheel_next_start:
                    self._wheel_next_start = start
            entries.append((time, next(self._seq), event))
        else:
            heapq.heappush(self._queue, (time, next(self._seq), event))
        self._pending += 1
        self.events_scheduled += 1
        if tag is not None:
            self._tagged[event] = tag
        return Timer(self, event)

    def _free_event(self, event: _Event) -> None:
        # Bump the generation so outstanding Timer handles see the
        # record as spent, then drop references for the GC — the slab
        # must never pin a delivered datagram through ``args``.
        event.gen += 1
        event.callback = None  # type: ignore[assignment]
        event.args = ()
        event.tag = None
        if len(self._slab) < _SLAB_MAX:
            self._slab.append(event)

    def _flush_wheel(self, head_time: float) -> None:
        """Move wheel buckets whose span could precede ``head_time``
        into the heap.  Entries keep their original ``(time, seq)``
        keys, so heap ordering is exactly what a heap-only engine
        would have produced; cancelled entries are dropped here and
        never touch the heap."""
        wheel = self._wheel
        buckets = self._wheel_buckets
        heappush = heapq.heappush
        queue = self._queue
        while buckets and buckets[0] * _WHEEL_GRANULARITY <= head_time:
            bucket = heapq.heappop(buckets)
            for entry in wheel.pop(bucket):
                event = entry[2]
                if event.cancelled:
                    self._free_event(event)
                else:
                    event.parked = False
                    heappush(queue, entry)
        self._wheel_next_start = (
            buckets[0] * _WHEEL_GRANULARITY if buckets else float("inf")
        )

    def pending_tags(self) -> List[Tuple]:
        """Sorted tags of pending tagged events (exploration fingerprints)."""
        return sorted(self._tagged.values())

    def _cancel(self, event: _Event) -> None:
        """Mark an event cancelled and compact the heap when it's mostly dead."""
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        self._pending -= 1
        self.events_cancelled += 1
        if event.tag is not None:
            self._tagged.pop(event, None)
        if event.parked:
            # Wheel residents never reach the heap: the flush drops
            # them, so heap compaction accounting must not see them.
            return
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= _COMPACT_MIN
            and self._cancelled_in_heap * 2 > len(self._queue)
        ):
            live = []
            for entry in self._queue:
                if entry[2].cancelled:
                    self._free_event(entry[2])
                else:
                    live.append(entry)
            self._queue = live
            heapq.heapify(self._queue)
            self._cancelled_in_heap = 0

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run events in time order.

        Stops when the queue drains, when the next event lies beyond
        ``until`` (time advances to ``until`` in that case), or after
        ``max_events`` events as a runaway guard.  Returns the final
        simulation time.
        """
        processed = 0
        heappop = heapq.heappop
        queue = self._queue
        while True:
            if not queue:
                if self._wheel_next_start == float("inf"):
                    break
                self._flush_wheel(self._wheel_next_start)
                queue = self._queue
                continue
            time, _seq, event = queue[0]
            if time >= self._wheel_next_start:
                self._flush_wheel(time)
                continue
            if event.cancelled:
                heappop(queue)
                self._cancelled_in_heap -= 1
                self._free_event(event)
                continue
            if until is not None and time > until:
                break
            if self.choice_hook is not None:
                event = self._pop_tied(time)
            else:
                heappop(queue)
            event.fired = True
            self._pending -= 1
            self._now = time
            if event.tag is not None:
                self._tagged.pop(event, None)
            event.callback(*event.args)
            self._free_event(event)
            self._events_processed += 1
            processed += 1
            if processed >= max_events:
                raise SchedulerError(
                    f"exceeded max_events={max_events}; likely a protocol loop"
                )
            queue = self._queue  # compaction may have replaced the list
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _pop_tied(self, time: float) -> _Event:
        """Remove and return the event to fire at ``time``, consulting
        ``choice_hook`` when several pending events tie at that instant.

        The unchosen events keep their original ``(time, seq)`` keys,
        so FIFO order among them is preserved for the next round.
        """
        tied: List[Tuple[float, int, _Event]] = []
        queue = self._queue
        while queue and queue[0][0] == time:
            entry = heapq.heappop(queue)
            if entry[2].cancelled:
                self._cancelled_in_heap -= 1
                self._free_event(entry[2])
                continue
            tied.append(entry)
        if len(tied) == 1:
            return tied[0][2]
        index = self.choice_hook(time, [entry[2].tag for entry in tied])
        if not 0 <= index < len(tied):
            raise SchedulerError(
                f"choice hook returned {index} for a tie of {len(tied)}"
            )
        chosen = tied.pop(index)
        for entry in tied:
            heapq.heappush(queue, entry)
        return chosen[2]

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain; returns the final simulation time."""
        return self.run(until=None, max_events=max_events)

    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        while True:
            queue = self._queue
            if not queue:
                if self._wheel_next_start == float("inf"):
                    return None
                self._flush_wheel(self._wheel_next_start)
                continue
            head_time = queue[0][0]
            if head_time >= self._wheel_next_start:
                self._flush_wheel(head_time)
                continue
            if queue[0][2].cancelled:
                event = heapq.heappop(queue)[2]
                self._cancelled_in_heap -= 1
                self._free_event(event)
                continue
            return head_time


class PeriodicTimer:
    """Re-arming timer that invokes a callback every ``interval`` seconds.

    Protocol keepalives (CBT echo requests, IGMP queries, DVMRP
    re-floods) are all periodic; this wrapper owns the re-arming so the
    protocol code only supplies the tick callback (called as
    ``callback(*args)``).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        jitter: Callable[[], float] = lambda: 0.0,
    ) -> None:
        if interval <= 0:
            raise SchedulerError(f"interval must be positive, got {interval}")
        self._scheduler = scheduler
        self._interval = interval
        self._callback = callback
        self._args = args
        self._jitter = jitter
        self._timer: Optional[Timer] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    @property
    def interval(self) -> float:
        return self._interval

    def start(self, immediately: bool = False) -> None:
        """Begin ticking; with ``immediately`` the first tick is at t+0."""
        self._running = True
        delay = 0.0 if immediately else self._interval + self._jitter()
        self._timer = self._scheduler.call_later(delay, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def reschedule(self, interval: float) -> None:
        """Change the tick interval; takes effect from the next arming."""
        if interval <= 0:
            raise SchedulerError(f"interval must be positive, got {interval}")
        self._interval = interval

    def _tick(self) -> None:
        if not self._running:
            return
        self._callback(*self._args)
        if self._running:
            self._timer = self._scheduler.call_later(
                self._interval + self._jitter(), self._tick
            )


def run_phases(scheduler: Scheduler, phases: List[Tuple[float, Callable[[], Any]]]) -> None:
    """Schedule a list of ``(at_time, action)`` pairs and run to idle.

    Convenience for tests and examples that script a scenario:
    "at t=1 host A joins, at t=5 host B leaves, ...".
    """
    for at_time, action in phases:
        scheduler.call_at(at_time, action)
    scheduler.run_until_idle()
