"""Deterministic discrete-event scheduler.

The scheduler is a priority queue keyed on ``(time, sequence)`` so that
events scheduled for the same instant fire in the order they were
scheduled.  Determinism matters: protocol traces captured by the tests
must be byte-for-byte reproducible across runs.

Performance notes (see docs/PERFORMANCE.md):

* One object per scheduled event: the :class:`Timer` that
  ``call_later`` returns *is* the record in the queue (``__slots__``,
  queued as ``(time, seq, timer)``).  Nothing is recycled, so a handle
  can never observe another event's state and a fired or cancelled
  record is freed by refcount as soon as its caller lets go of it.
* Far-future events (keepalive, retry, and hello timers — the bulk of
  the pending population at scale) park in a coarse timer wheel
  instead of the heap.  Wheel entries keep their original
  ``(time, seq)`` keys and every bucket is flushed into the heap
  strictly before it can contain the head event, so pop order is
  *identical* to the pure-heap engine — the wheel is invisible to
  traces.  The flush drops cancelled entries, so a cancelled parked
  timer never touches the heap, which is the win for churny keepalives
  that re-arm and cancel far more often than they fire.
* Cancelling is one flag wherever the event lives.  Only events fewer
  than two wheel buckets (0.5 s) ahead are heap-pushed directly, so a
  cancelled heap resident is popped and skipped within 0.5 simulated
  seconds by construction: lazy deletion at pop is the only cancel
  path the heap needs.
* ``pending_events`` is a live counter and ``pending_tags()`` reads a
  live tag index — neither scans the heap.
* An event carries its callback's arguments (``call_later(delay, f,
  *args)``; the loop calls ``f(*args)``), so callers schedule a bound
  method plus a tuple instead of building a closure per event.  What
  is pending costs RSS and the collections the *build* runs: at
  n=1000 tens of thousands of deliveries and timers are in flight,
  and a closure is a function, a cell per variable and a tuple where
  an args tuple is one object.
* ``run()`` pauses the cyclic collector and hands it back as found
  (:class:`collector_paused`): the loop leaves nothing unreachable
  (``tests/test_alloc_budget.py``) and the pending population is
  middle-aged, the shape a generational collector re-walks at a
  per-event cost no heap diet lowers.
* A scheduler has an end.  :meth:`Scheduler.close` empties the queue
  and makes every component that :attr:`Scheduler.register`-ed itself
  let go of what it holds, so a finished simulation is freed by
  refcount when it is dropped instead of being left for the collector
  — which is what lets whole cells and builds run inside
  :class:`collector_paused` too (docs/PERFORMANCE.md, "a network
  closes").

Choice-point hook layer (systematic exploration):

Events scheduled for the same instant normally fire in FIFO order.
Installing a ``choice_hook`` hands that tie-breaking decision to an
external resolver: every pending event with the head timestamp (the
*tie group*) leaves the heap once and waits in FIFO order, and before
each firing the hook is asked which of the waiting events goes next;
events the group schedules for the same instant join at the end.  A
group of k costs k heap pops.  The state-space explorer
(:mod:`repro.explore`) uses this to enumerate message-delivery and
timer-firing orders; with no hook installed the fast path is a single
attribute check.  Events may carry an optional ``tag`` describing
what firing them means (links tag deliveries) so resolvers can tell
deliveries from opaque timer callbacks.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from contextlib import ContextDecorator, contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.telemetry import Telemetry

#: Timer-wheel bucket width in simulation seconds.  Events at least two
#: buckets in the future park in the wheel; nearer events (packet
#: deliveries are milliseconds) go straight to the heap.
_WHEEL_GRANULARITY = 0.25
_INV_GRANULARITY = 1.0 / _WHEEL_GRANULARITY


class SchedulerError(Exception):
    """Raised on invalid scheduler operations (e.g. scheduling in the
    past, or anything at all on a closed scheduler)."""


class collector_paused(ContextDecorator):
    """``with collector_paused():`` — the cyclic collector is off inside
    the block and handed back *as found*, so blocks nest (a cell that
    pauses calls ``Scheduler.run()``, which pauses) and the outermost
    one is the one that switches it back on.  ``@collector_paused()``
    on a function pauses each call of it.

    The one pause in ``src/repro`` (``tests/test_hermetic_source.py``).
    It is safe round code that leaves no unreachable cycles behind:
    the event loop, a build, and a :func:`cell`.  Nothing is collected
    on the way out — what the block allocated and still holds is
    simply young again.
    """

    def _recreate_cm(self) -> "collector_paused":
        return collector_paused()  # one per call: each remembers its own

    def __enter__(self) -> None:
        self._collecting = collecting = gc.isenabled()
        if collecting:
            gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._collecting:
            gc.enable()


@contextmanager
def cell(build: Callable[..., Any], *args: Any, **kwargs: Any) -> Iterator[Any]:
    """``with cell(build, *args) as world:`` — one simulation from
    build to close.  ``build(*args, **kwargs)`` returns the network (anything
    with ``close()``) or a tuple that starts with it; the block gets
    what ``build`` returned, and the network is closed on the way out,
    also when the block raises.  So nothing the cell built is left for
    the cyclic collector, which is what makes it safe to run all of it
    — the build included — with the collector paused.

    The shape of every cell runner (``harness/``, ``workloads/cell``,
    ``explore.run_schedule``, ``benchmarks/bench_scale``).
    """
    with collector_paused():
        world = build(*args, **kwargs)
        network = world[0] if isinstance(world, tuple) else world
        try:
            yield world
        finally:
            network.close()


class Timer:
    """A scheduled event: the record the scheduler queues and the
    handle its caller cancels or restarts are the same object.

    A ``Timer`` is returned by :meth:`Scheduler.call_later`.  Cancelling
    an already-fired or already-cancelled timer is a no-op, which keeps
    protocol code free of "is it still pending?" bookkeeping.
    """

    __slots__ = (
        "fires_at", "callback", "args", "tag", "cancelled", "fired", "_scheduler"
    )

    def __init__(
        self,
        scheduler: "Scheduler",
        fires_at: float,
        callback: Callable[..., None],
        args: Tuple,
        tag: Optional[Tuple],
    ) -> None:
        self._scheduler = scheduler
        #: Absolute simulation time at which the timer fires.
        self.fires_at = fires_at
        self.callback = callback
        self.args = args
        self.tag = tag
        self.cancelled = False
        self.fired = False

    @property
    def pending(self) -> bool:
        """True while the timer has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Cancel the timer; safe to call at any time."""
        self._scheduler._cancel(self)

    def restart(self, delay: float) -> "Timer":
        """Cancel this timer and schedule its callback (same arguments,
        same tag) again after ``delay``."""
        self.cancel()
        return self._scheduler.call_later(
            delay, self.callback, *self.args, tag=self.tag
        )


class Scheduler:
    """Priority-queue discrete-event loop.

    Usage::

        sched = Scheduler()
        sched.call_later(1.5, print, "fires at t=1.5")
        sched.run(until=10.0)
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._pending = 0
        # Timer wheel: bucket index -> unsorted entry list, plus a
        # bucket-index heap for "earliest bucket" and a cached start
        # time of that bucket (inf when the wheel is empty) so the run
        # loop pays one float compare per event in the common case.
        self._wheel: Dict[int, List[Tuple[float, int, Timer]]] = {}
        self._wheel_buckets: List[int] = []
        self._wheel_next_start = float("inf")
        # Live index of pending tagged events (tag lookups must not
        # scan the heap): timer -> tag.
        self._tagged: Dict[Timer, Tuple] = {}
        #: Engine accounting (always on — plain integer bumps): these
        #: obey scheduled == processed + cancelled + pending, checked
        #: by :mod:`repro.telemetry.conservation`.
        self.events_scheduled = 0
        self.events_cancelled = 0
        #: Observability bundle shared by everything holding this
        #: scheduler (links, routers, protocols, IGMP agents).
        self.telemetry = Telemetry()
        self.telemetry.registry.gauge_attrs(
            "netsim.scheduler.",
            self,
            (
                ("events_scheduled", "events_scheduled"),
                ("events_processed", "_events_processed"),
                ("events_cancelled", "events_cancelled"),
                ("pending_events", "_pending"),
                ("sim_time", "_now"),
            ),
        )
        #: When set, same-instant tie groups of size >= 2 are resolved
        #: by this callable instead of FIFO order.  It receives
        #: ``(time, [tag, ...])`` — one entry per tied event, in FIFO
        #: order, ``None`` for untagged events — and returns the index
        #: of the event to fire first.  The rest keep waiting in FIFO
        #: order, joined by what the group schedules for the same
        #: instant, and the resolver is asked again until the group
        #: drains (enumerating a full ordering).
        self.choice_hook: Optional[Callable[[float, List[Optional[Tuple]]], int]] = None
        #: Components that end with this scheduler, and how they say
        #: so: ``scheduler.register(component)`` — :meth:`close` empties
        #: the component's attribute dict.  Anything that is handed the
        #: scheduler and is referred back to by what it holds (a
        #: protocol engine whose timers and tickers call its own
        #: methods, an agent with listener callbacks, an auditor that
        #: re-arms itself) registers from its constructor.  That is the
        #: whole contract, so ``close`` needs to know no component
        #: class; a closed component is an empty shell — any use of it
        #: raises ``AttributeError`` — and must therefore be a plain
        #: dict-backed object (no ``__slots__``:
        #: ``tests/test_hermetic_source.py``).  (The bound
        #: ``append``, not a method round it: a cell of sixteen routers
        #: registers fifty components and lives for 800 events.)
        self._components: List[Any] = []
        self.register: Callable[[Any], None] = self._components.append
        self._running = False
        #: True once :meth:`close` has run.
        self.closed = False

    # -- lifetime ----------------------------------------------------------

    def close(self) -> None:
        """Stop for good and break every reference cycle through this
        scheduler, so that whatever was built on it is freed by
        refcount the moment it is dropped.

        Pending events — a tie group cut short included, since
        ``run()`` puts it back on the heap — are dropped unfired and
        forget their callbacks (a ticker and its arm refer to each
        other), registered components are emptied, the tie-break hook
        and the telemetry bundle are let go (the bundle's gauges read
        this object).  The
        counters keep their last values: ``events_processed`` and the
        registry gauges bound to this scheduler read after ``close()``
        what they read before it.  Idempotent; scheduling or running
        afterwards raises :class:`SchedulerError`.
        """
        if self.closed:
            return
        if self._running:
            raise SchedulerError(
                "close() called from inside a running callback; "
                "close after run() has returned"
            )
        self.closed = True
        for component in self._components:
            component.__dict__ = {}
        del self._components[:]
        for _time, _seq, timer in itertools.chain(
            self._queue, *self._wheel.values()
        ):
            timer.cancelled = True
            timer.callback = None
            timer.args = ()
        self._queue.clear()
        self._wheel.clear()
        self._wheel_buckets.clear()
        self._wheel_next_start = float("inf")
        self._tagged.clear()
        self.choice_hook = None
        self.telemetry = None

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
        function plus a cell per variable, and pending events are
        resident memory the build's collections walk (docs/PERFORMANCE.md)."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule {delay}s in the past")
        if self.closed:
            raise SchedulerError("cannot schedule: the scheduler is closed")
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
        if self.closed:
            raise SchedulerError("cannot schedule: the scheduler is closed")
        return self._schedule(time, callback, args, tag)

    def _schedule(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple,
        tag: Optional[Tuple],
    ) -> Timer:
        timer = Timer(self, time, callback, args, tag)
        bucket = int(time * _INV_GRANULARITY)
        if bucket > int(self._now * _INV_GRANULARITY) + 1:
            # Far enough out to park in the wheel: the bucket's start
            # lies strictly in the future, so it will be flushed into
            # the heap before simulation time can reach any of its
            # events.
            entries = self._wheel.get(bucket)
            if entries is None:
                entries = self._wheel[bucket] = []
                heapq.heappush(self._wheel_buckets, bucket)
                start = bucket * _WHEEL_GRANULARITY
                if start < self._wheel_next_start:
                    self._wheel_next_start = start
            entries.append((time, next(self._seq), timer))
        else:
            heapq.heappush(self._queue, (time, next(self._seq), timer))
        self._pending += 1
        self.events_scheduled += 1
        if tag is not None:
            self._tagged[timer] = tag
        return timer

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
                if not entry[2].cancelled:
                    heappush(queue, entry)
        self._wheel_next_start = (
            buckets[0] * _WHEEL_GRANULARITY if buckets else float("inf")
        )

    def pending_tags(self) -> List[Tuple]:
        """Sorted tags of pending tagged events (exploration fingerprints)."""
        return sorted(self._tagged.values())

    def _cancel(self, timer: Timer) -> None:
        """Flag ``timer`` cancelled; the wheel flush or the heap pop
        that next meets it drops it."""
        if timer.cancelled or timer.fired:
            return
        timer.cancelled = True
        self._pending -= 1
        self.events_cancelled += 1
        if timer.tag is not None:
            self._tagged.pop(timer, None)

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run events in time order.

        Stops when the queue drains, when the next event lies beyond
        ``until`` (time advances to ``until`` in that case), or after
        ``max_events`` events as a runaway guard.  Returns the final
        simulation time.

        The cyclic collector is paused for the duration and handed back
        as it was found: the loop and the protocols it drives free
        everything by refcount, so a collection started in here only
        walks the pending population and finds nothing
        (docs/PERFORMANCE.md, PR 18).  A caller whose own callbacks
        build reference cycles per event keeps them until ``run``
        returns, so such a caller steps ``run(until=...)``.
        """
        if self.closed:
            raise SchedulerError("cannot run: the scheduler is closed")
        processed = 0
        heappop = heapq.heappop
        queue = self._queue
        running, self._running = self._running, True
        try:
            with collector_paused():
                while True:
                    if not queue:
                        if self._wheel_next_start == float("inf"):
                            break
                        self._flush_wheel(self._wheel_next_start)
                        continue
                    time, _seq, timer = queue[0]
                    if time >= self._wheel_next_start:
                        self._flush_wheel(time)
                        continue
                    if timer.cancelled:
                        heappop(queue)
                        continue
                    if until is not None and time > until:
                        break
                    if self.choice_hook is not None:
                        processed = self._run_tied(time, processed, max_events)
                        continue
                    heappop(queue)
                    timer.fired = True
                    self._pending -= 1
                    self._events_processed += 1
                    self._now = time
                    if timer.tag is not None:
                        self._tagged.pop(timer, None)
                    timer.callback(*timer.args)
                    processed += 1
                    if processed >= max_events:
                        raise SchedulerError(
                            f"exceeded max_events={max_events}; likely a protocol loop"
                        )
        finally:
            self._running = running
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _run_tied(self, time: float, processed: int, max_events: int) -> int:
        """Fire the tie group due at ``time`` under ``choice_hook``: the
        hook picks which live member goes next whenever two or more
        wait.  Returns ``processed`` plus the events fired.

        The group leaves the heap once: each member is popped when it
        becomes due and waits in ``tied`` in ``(time, seq)`` order, so a
        group of k costs k pops, not a fresh draw per member.  Events a
        member schedules for the same instant carry later sequence
        numbers and join at the end; members cancelled meanwhile drop
        out.  The hook therefore sees the lists, in the order, that
        drawing the group afresh for every member would give it.

        Whatever has not fired when the group ends early — the hook
        raised or returned an index out of range, a callback raised,
        ``max_events`` tripped, or a callback took the hook away — goes
        back on the heap under its own key: it stays pending and fires
        in FIFO order next.
        """
        queue = self._queue
        heappop = heapq.heappop
        tied: List[Tuple[float, int, Timer]] = []
        try:
            while True:
                while queue and queue[0][0] == time:
                    entry = heappop(queue)
                    if not entry[2].cancelled:
                        tied.append(entry)
                tied = [entry for entry in tied if not entry[2].cancelled]
                if not tied or self.choice_hook is None:
                    return processed
                index = 0
                if len(tied) > 1:
                    index = self.choice_hook(time, [entry[2].tag for entry in tied])
                    if not 0 <= index < len(tied):
                        raise SchedulerError(
                            f"choice hook returned {index} for a tie of {len(tied)}"
                        )
                timer = tied.pop(index)[2]
                timer.fired = True
                self._pending -= 1
                self._events_processed += 1
                self._now = time
                if timer.tag is not None:
                    self._tagged.pop(timer, None)
                timer.callback(*timer.args)
                processed += 1
                if processed >= max_events:
                    raise SchedulerError(
                        f"exceeded max_events={max_events}; likely a protocol loop"
                    )
        finally:
            for entry in tied:
                heapq.heappush(queue, entry)

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain; returns the final simulation time."""
        return self.run(until=None, max_events=max_events)


class PeriodicTimer:
    """Re-arming timer that invokes a callback every ``interval`` seconds.

    Protocol keepalives (CBT echo requests, IGMP queries, DVMRP
    re-floods) are all periodic; this wrapper owns the re-arming so the
    protocol code only supplies the tick callback (called as
    ``callback(*args)``).

    ``_timer`` is the one arm the ticker owns: ``start`` and ``stop``
    cancel it before replacing it and a tick re-arms only if the arm
    that fired is still the current one, so no sequence of calls —
    from inside the callback or not — leaves two chains ticking.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        if interval <= 0:
            raise SchedulerError(f"interval must be positive, got {interval}")
        self._scheduler = scheduler
        self._interval = interval
        self._callback = callback
        self._args = args
        self._timer: Optional[Timer] = None

    def start(self, immediately: bool = False) -> None:
        """Begin ticking (afresh if already ticking); with
        ``immediately`` the first tick is at t+0."""
        self.stop()
        delay = 0.0 if immediately else self._interval
        self._timer = self._scheduler.call_later(delay, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        arm = self._timer
        self._callback(*self._args)
        if self._timer is arm:
            self._timer = self._scheduler.call_later(self._interval, self._tick)
