"""Deterministic discrete-event scheduler.

The scheduler is a priority queue of *instants*: each distinct pending
time sits on the heap once, and its events wait in its slot in the
order they were scheduled, so events scheduled for the same instant
fire in that order.  Determinism matters: protocol traces captured by
the tests must be byte-for-byte reproducible across runs.

Performance notes (see docs/PERFORMANCE.md):

* One object per scheduled event: the :class:`Timer` that
  ``call_later`` returns *is* the record in the queue (``__slots__``).
  No record is handed to a second caller, so a handle can never
  observe another event's state and a fired or cancelled record is
  freed by refcount as soon as its caller lets go of it; a
  :class:`PeriodicTimer` queues its own private arm again after each
  tick.
* The heap holds instants, not events, and there is one queue for
  every event, near or far (docs/PERFORMANCE.md, "the queue holds
  instants" and "one queue, no wheel").  ``_slots`` maps a pending
  instant to its slot: the :class:`Timer` itself while it is alone
  there, a FIFO ``deque`` of its timers once a second one joins.
  Keepalives tick in step, so at scale one instant holds thousands of
  events, and only a new instant is pushed: a tie group costs one heap
  push and one pop, and the heap compares bare floats — the deque's
  order *is* the scheduling order, so no sequence number is needed to
  break ties.  The far-future keepalive, retry and hello timers that
  make up most of what is pending spread over thousands of instants
  with one event each, and there the slot is no container at all (a
  one-element ``deque`` is 760 bytes).
* Cancelling is one flag: the run loop meets a cancelled timer at its
  instant and drops it, the only cancel path the queue needs.
* ``pending_events`` is a live counter and ``pending_tags()`` reads a
  live tag index — neither scans the queue.
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
external resolver: the instant's ``deque`` is the *tie group*, and
before each firing the hook is asked which of its waiting events goes
next; events the group schedules for the same instant join at the
end.  The hook indexes into the deque, so nothing leaves the queue
until it fires.  A one-event instant is no tie and asks nothing.  The
state-space explorer (:mod:`repro.explore`) uses this to enumerate
message-delivery and timer-firing orders; with no hook installed the
fast path is a single attribute check.  Events may carry an optional
``tag`` describing what firing them means (links tag deliveries) so
resolvers can tell deliveries from opaque timer callbacks.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from contextlib import ContextDecorator, contextmanager
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple, Union

from repro.telemetry import Telemetry

_INF = float("inf")


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


class Scheduler:
    """Instant-keyed priority-queue discrete-event loop.

    Usage::

        sched = Scheduler()
        sched.call_later(1.5, print, "fires at t=1.5")
        sched.run(until=10.0)
    """

    def __init__(self) -> None:
        # The heap holds each pending instant once; ``_slots[instant]``
        # is its one timer, or a deque of its timers in scheduling order
        # once it has two.  An instant is on the heap exactly while it
        # has a slot.
        self._queue: List[float] = []
        self._slots: Dict[float, Union[Timer, Deque[Timer]]] = {}
        self._now = 0.0
        self._events_processed = 0
        self._pending = 0
        # Live index of pending tagged events (tag lookups must not
        # scan the queue): timer -> tag.
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

        Pending events — a tie group cut short included, since what
        has not fired stays in its slot — are dropped unfired and
        forget their callbacks (a ticker and its arm refer to each
        other), registered components are emptied, the tie-break hook
        and the telemetry bundle are let go (the bundle's attribute
        family reads this object).  The counters keep their last
        values: ``events_processed`` and the registry family bound to
        this scheduler read after ``close()`` what they read before it.
        Idempotent; scheduling or running afterwards raises
        :class:`SchedulerError`.
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
        for slot in self._slots.values():
            for timer in (slot,) if slot.__class__ is Timer else slot:
                timer.cancelled = True
                timer.callback = None
                timer.args = ()
        self._queue.clear()
        self._slots.clear()
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
        if not 0 <= delay < _INF:
            if delay < 0:
                raise SchedulerError(f"cannot schedule {delay}s in the past")
            raise SchedulerError(
                f"cannot schedule after a delay of {delay!r}: not a finite number"
            )
        if self.closed:
            raise SchedulerError("cannot schedule: the scheduler is closed")
        return self._schedule(Timer(self, self._now + delay, callback, args, tag))

    def call_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        tag: Optional[Tuple] = None,
    ) -> Timer:
        """Schedule ``callback(*args)`` to run at absolute simulation ``time``."""
        if not self._now <= time < _INF:
            if time < self._now:
                raise SchedulerError(
                    f"cannot schedule at t={time}; current time is t={self._now}"
                )
            raise SchedulerError(f"cannot schedule at t={time!r}: not a finite time")
        if self.closed:
            raise SchedulerError("cannot schedule: the scheduler is closed")
        return self._schedule(Timer(self, time, callback, args, tag))

    def _schedule(self, timer: Timer) -> Timer:
        """Queue ``timer`` (new, or a ticker's arm that has fired) at
        its ``fires_at``; returns it."""
        time = timer.fires_at
        slots = self._slots
        slot = slots.get(time)
        if slot is None:
            # A new instant: the timer is its slot until a second joins.
            slots[time] = timer
            heapq.heappush(self._queue, time)
        elif slot.__class__ is Timer:
            slots[time] = deque((slot, timer))
        else:
            slot.append(timer)
        self._pending += 1
        self.events_scheduled += 1
        if timer.tag is not None:
            self._tagged[timer] = timer.tag
        return timer

    def pending_tags(self) -> List[Tuple]:
        """Sorted tags of pending tagged events (exploration fingerprints)."""
        return sorted(self._tagged.values())

    def _cancel(self, timer: Timer) -> None:
        """Flag ``timer`` cancelled; the run loop drops it when it
        reaches its instant."""
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
        if until != until:
            raise SchedulerError(f"cannot run until t={until!r}: not a number")
        processed = 0
        heappop = heapq.heappop
        queue = self._queue
        slots = self._slots
        running, self._running = self._running, True
        try:
            with collector_paused():
                while queue:
                    time = queue[0]
                    if until is not None and time > until:
                        break
                    slot = slots[time]
                    if slot.__class__ is Timer:
                        # A one-event instant is off the queue before it
                        # fires: what it schedules for this instant opens
                        # the instant afresh, and a nested ``run()``
                        # never sees it.
                        heappop(queue)
                        del slots[time]
                        if slot.cancelled:
                            continue
                        slot.fired = True
                        self._pending -= 1
                        self._events_processed += 1
                        self._now = time
                        if slot.tag is not None:
                            self._tagged.pop(slot, None)
                        slot.callback(*slot.args)
                        processed += 1
                        if processed >= max_events:
                            raise SchedulerError(
                                f"exceeded max_events={max_events}; likely a protocol loop"
                            )
                        continue
                    # Drain a tie group; what it schedules for its own
                    # instant joins the same deque.  A raising callback,
                    # a ``max_events`` stop or a hook a callback installs
                    # leaves the rest in the slot.
                    if self.choice_hook is not None:
                        processed = self._run_tied(time, slot, processed, max_events)
                    while slot and self.choice_hook is None:
                        timer = slot.popleft()
                        if timer.cancelled:
                            continue
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
                    # Spent: off the queue — unless a callback that ran
                    # this scheduler itself did that already (and maybe
                    # opened the instant afresh).
                    if not slot and time in slots and slots[time] is slot:
                        del slots[time]
                        heappop(queue)
        finally:
            self._running = running
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _run_tied(
        self, time: float, slot: Deque[Timer], processed: int, max_events: int
    ) -> int:
        """Fire the tie group due at ``time``, the instant's ``slot``,
        under ``choice_hook``: the hook picks which live member goes
        next whenever two or more wait.  Returns ``processed`` plus the
        events fired; the slot is empty when the group has drained.

        The group is the slot: the hook's index picks from its live
        members in FIFO order and only the chosen one leaves it.
        Events a member schedules for the same instant join at the
        end; members cancelled meanwhile drop out.  The hook therefore
        sees the lists, in the order, that drawing the group afresh
        for every member would give it.

        Whatever has not fired when the group ends early — the hook
        raised or returned an index out of range, a callback raised,
        ``max_events`` tripped, or a callback took the hook away — is
        still in the slot: it stays pending and fires in FIFO order
        next.
        """
        while self.choice_hook is not None:
            tied = [timer for timer in slot if not timer.cancelled]
            if not tied:
                slot.clear()
                break
            index = 0
            if len(tied) > 1:
                index = self.choice_hook(time, [timer.tag for timer in tied])
                if not 0 <= index < len(tied):
                    raise SchedulerError(
                        f"choice hook returned {index} for a tie of {len(tied)}"
                    )
            timer = tied[index]
            slot.remove(timer)
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
        return processed

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

    Slotted: a started n=1,000 domain holds 5,000 tickers (four per
    CBT router, one per LAN querier), and no ticker is a registered
    component, whose ``close()`` would swap out the instance dict.
    ``__weakref__`` lets a test watch a closed chain go.
    """

    __slots__ = ("_scheduler", "_interval", "_callback", "_args", "_timer", "__weakref__")

    def __init__(
        self,
        scheduler: Scheduler,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        if not 0 < interval < _INF:
            raise SchedulerError(
                f"interval must be a positive finite number, got {interval!r}"
            )
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

    @property
    def running(self) -> bool:
        """Between :meth:`start` and :meth:`stop`."""
        return self._timer is not None

    def _tick(self) -> None:
        arm = self._timer
        self._callback(*self._args)
        if self._timer is arm:
            # The arm that fired is queued again: one ``Timer`` per
            # ticker, not one per tick.
            scheduler = self._scheduler
            arm.fires_at = scheduler._now + self._interval
            arm.fired = False
            scheduler._schedule(arm)
