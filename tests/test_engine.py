"""Tests for the discrete-event scheduler."""

import gc
import sys
import types
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.netsim import engine
from repro.netsim.engine import PeriodicTimer, Scheduler, SchedulerError
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_UDP
from repro.telemetry.conservation import scheduler_conservation
from repro.topology.builder import Network


def restart(scheduler, timer, delay):
    """Cancel ``timer`` and schedule its callback (same arguments, same
    tag) again after ``delay``: a record keeps its call once cancelled
    or fired."""
    timer.cancel()
    return scheduler.call_at(
        scheduler.now + delay, timer.callback, *timer.args, tag=timer.tag
    )


class TestScheduler:
    def test_starts_at_time_zero(self):
        assert Scheduler().now == 0.0

    def test_events_fire_in_time_order(self):
        sched = Scheduler()
        fired = []
        sched.call_later(2.0, lambda: fired.append("b"))
        sched.call_later(1.0, lambda: fired.append("a"))
        sched.call_later(3.0, lambda: fired.append("c"))
        sched.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_fifo_order(self):
        sched = Scheduler()
        fired = []
        for tag in ("first", "second", "third"):
            sched.call_later(1.0, (lambda t: (lambda: fired.append(t)))(tag))
        sched.run_until_idle()
        assert fired == ["first", "second", "third"]

    def test_now_advances_to_event_time(self):
        sched = Scheduler()
        seen = []
        sched.call_later(5.5, lambda: seen.append(sched.now))
        sched.run_until_idle()
        assert seen == [5.5]

    def test_run_until_stops_before_later_events(self):
        sched = Scheduler()
        fired = []
        sched.call_later(1.0, lambda: fired.append(1))
        sched.call_later(10.0, lambda: fired.append(10))
        sched.run(until=5.0)
        assert fired == [1]
        assert sched.now == 5.0
        sched.run_until_idle()
        assert fired == [1, 10]

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulerError):
            Scheduler().call_later(-0.1, lambda: None)

    def test_call_at_in_past_rejected(self):
        sched = Scheduler()
        sched.call_later(5.0, lambda: None)
        sched.run_until_idle()
        with pytest.raises(SchedulerError):
            sched.call_at(1.0, lambda: None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_times_are_rejected_typed(self, value):
        sched = Scheduler()
        with pytest.raises(SchedulerError, match=f"delay of {value}: not a finite"):
            sched.call_later(value, print)
        with pytest.raises(SchedulerError, match=f"t={value}: not a finite"):
            sched.call_at(value, print)
        assert sched.events_scheduled == 0 and sched.pending_events == 0
        assert sched._queue == [] and sched._slots == {}

    def test_running_until_nan_is_rejected_and_fires_nothing(self):
        sched = Scheduler()
        fired = []
        sched.call_later(1.0, fired.append, "due at t=1.0")
        with pytest.raises(SchedulerError, match="until t=nan: not a number"):
            sched.run(until=float("nan"))
        assert fired == [] and sched.now == 0.0 and sched.pending_events == 1
        sched.run_until_idle()
        assert fired == ["due at t=1.0"]

    def test_events_scheduled_during_run_are_processed(self):
        sched = Scheduler()
        fired = []

        def first():
            fired.append("first")
            sched.call_later(1.0, lambda: fired.append("second"))

        sched.call_later(1.0, first)
        sched.run_until_idle()
        assert fired == ["first", "second"]

    @staticmethod
    def run_nested(choice_hook=None):
        """Two tie groups whose middle member runs the scheduler itself:
        at t=1.0 on to t=1.5, at t=1.2 for its own instant only, and
        each then schedules for its own instant again."""
        sched = Scheduler()
        fired = []

        def nested(span):
            fired.append(("nested", sched.now))
            sched.run(until=sched.now + span)
            fired.append(("back", sched.now))
            sched.call_later(0.0, fired.append, ("again", sched.now))

        sched.call_at(1.0, fired.append, "a")
        sched.call_at(1.0, nested, 0.5)
        sched.call_at(1.0, fired.append, "c")
        sched.call_at(1.2, fired.append, "d")
        sched.call_at(1.2, nested, 0.0)
        sched.call_at(1.2, fired.append, "f")
        sched.call_at(3.0, fired.append, "g")
        sched.choice_hook = choice_hook
        sched.run_until_idle()
        assert sched.now == 3.0 and sched.pending_events == 0
        assert sched.events_processed == sched.events_scheduled == 9
        assert sched._queue == []
        return fired

    #: The nested loop fires the rest of the instant it was called from
    #: and runs on to its own ``until``; the outer loop then carries on
    #: from there, firing nothing twice and losing nothing — also when
    #: the callback schedules for its own instant again after the
    #: nested loop has finished with it.
    NESTED_ORDER = [
        "a",
        ("nested", 1.0),
        "c",
        "d",
        ("nested", 1.2),
        "f",
        ("back", 1.2),
        ("again", 1.2),
        ("back", 1.5),
        ("again", 1.5),
        "g",
    ]

    def test_a_callback_may_run_its_own_scheduler(self):
        assert self.run_nested() == self.NESTED_ORDER

    def test_a_callback_may_run_its_own_scheduler_under_the_hook(self):
        # The tie group is the slot, so the nested loop sees the rest of
        # it too: the hook (FIFO here) picks from the same members and
        # the clock never goes back to an instant already left.
        assert self.run_nested(lambda time, tags: 0) == self.NESTED_ORDER

    def test_max_events_guard_trips_on_livelock(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_EVENTS", 100)
        sched = Scheduler()

        def loop():
            sched.call_later(0.0, loop)

        sched.call_later(0.0, loop)
        with pytest.raises(SchedulerError, match="MAX_EVENTS=100"):
            sched.run()
        assert sched.events_processed == 100

    def test_events_processed_counter(self):
        sched = Scheduler()
        for _ in range(4):
            sched.call_later(1.0, lambda: None)
        sched.run_until_idle()
        assert sched.events_processed == 4


class TestTimer:
    def test_cancel_prevents_firing(self):
        sched = Scheduler()
        fired = []
        timer = sched.call_later(1.0, lambda: fired.append(1))
        timer.cancel()
        sched.run_until_idle()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sched = Scheduler()
        timer = sched.call_later(1.0, lambda: None)
        sched.run_until_idle()
        timer.cancel()  # must not raise

    def test_pending_reflects_state(self):
        sched = Scheduler()
        timer = sched.call_later(1.0, lambda: None)
        assert timer.pending
        timer.cancel()
        assert not timer.pending

    def test_restart_reschedules(self):
        sched = Scheduler()
        fired = []
        timer = sched.call_later(1.0, lambda: fired.append(sched.now))
        restart(sched, timer, 5.0)
        sched.run_until_idle()
        assert fired == [5.0]

    def test_restart_keeps_args_and_tag(self):
        sched = Scheduler()
        fired = []
        tag = ("deliver", "x")
        timer = sched.call_at(1.0, fired.append, "payload", tag=tag)
        again = restart(sched, timer, 5.0)
        # The cancelled original leaves the tag index; the restarted
        # event is back in it.
        assert sched.pending_tags() == [tag]
        assert again.fires_at == 5.0
        sched.run_until_idle()
        assert fired == ["payload"]
        assert sched.pending_tags() == []

    def test_restart_after_firing_rearms_the_same_call(self):
        # A fired record keeps its (callback, args, tag), and a later
        # event is a record of its own, so restart re-arms what fired.
        sched = Scheduler()
        fired = []
        timer = sched.call_at(1.0, fired.append, "again", tag=("t",))
        sched.run_until_idle()
        sched.call_later(0.5, fired.append, "other")
        restart(sched, timer, 2.0)
        assert sched.pending_tags() == [("t",)]
        sched.run_until_idle()
        assert fired == ["again", "other", "again"]

    def test_pending_false_after_firing(self):
        sched = Scheduler()
        timer = sched.call_later(1.0, lambda: None)
        sched.run_until_idle()
        assert not timer.pending

    def test_pending_false_when_fires_at_equals_now(self):
        # A fired timer whose fires_at coincides with the current clock
        # must not report pending (the old check compared times only).
        sched = Scheduler()
        fired_state = []
        timer = sched.call_later(1.0, lambda: None)
        sched.call_later(1.0, lambda: fired_state.append(timer.pending))
        sched.run(until=1.0)
        assert sched.now == 1.0
        assert timer.fires_at == sched.now
        assert fired_state == [False]
        assert not timer.pending

    def test_pending_true_while_scheduled_at_future_time(self):
        sched = Scheduler()
        timer = sched.call_later(2.0, lambda: None)
        sched.call_later(1.0, lambda: None)
        sched.run(until=1.0)
        assert timer.pending


class TestPeriodicTimer:
    def test_ticks_at_interval(self):
        sched = Scheduler()
        ticks = []
        ticker = PeriodicTimer(sched, 2.0, lambda: ticks.append(sched.now))
        ticker.start()
        sched.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_immediate_start(self):
        sched = Scheduler()
        ticks = []
        ticker = PeriodicTimer(sched, 2.0, lambda: ticks.append(sched.now))
        ticker.start(immediately=True)
        sched.run(until=3.0)
        assert ticks == [0.0, 2.0]

    def test_stop_halts_ticking(self):
        sched = Scheduler()
        ticks = []
        ticker = PeriodicTimer(sched, 1.0, lambda: ticks.append(sched.now))
        ticker.start()
        sched.call_later(2.5, ticker.stop)
        sched.run_until_idle()
        assert ticks == [1.0, 2.0]

    def test_invalid_interval_rejected(self):
        with pytest.raises(SchedulerError):
            PeriodicTimer(Scheduler(), 0.0, lambda: None)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_interval_rejected_by_the_constructor(self, interval):
        sched = Scheduler()
        with pytest.raises(SchedulerError, match=f"interval must be .*, got {interval}"):
            PeriodicTimer(sched, interval, lambda: None)
        assert sched.events_scheduled == 0

    def test_tick_callback_receives_args(self):
        sched = Scheduler()
        ticks = []
        PeriodicTimer(sched, 2.0, ticks.append, "tick").start()
        sched.run(until=5.0)
        assert ticks == ["tick", "tick"]

    def test_double_start_leaves_one_tick_chain(self):
        sched = Scheduler()
        ticks = []
        ticker = PeriodicTimer(sched, 2.0, lambda: ticks.append(sched.now))
        ticker.start()
        ticker.start()
        sched.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]
        ticker.stop()
        assert sched.pending_events == 0

    def test_restart_from_the_callback_leaves_one_tick_chain(self):
        sched = Scheduler()
        ticks = []

        def tick():
            ticks.append(sched.now)
            if len(ticks) == 1:
                ticker.stop()
                ticker.start()

        ticker = PeriodicTimer(sched, 2.0, tick)
        ticker.start()
        sched.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]
        ticker.stop()
        assert sched.pending_events == 0


class TestSchedulerInternals:
    def test_pending_events_counter_is_live(self):
        sched = Scheduler()
        timers = [sched.call_later(float(i + 1), lambda: None) for i in range(6)]
        assert sched.pending_events == 6
        timers[0].cancel()
        timers[3].cancel()
        assert sched.pending_events == 4
        sched.run(until=2.0)
        assert sched.pending_events == 3
        sched.run_until_idle()
        assert sched.pending_events == 0

    def test_double_cancel_does_not_skew_counter(self):
        sched = Scheduler()
        timer = sched.call_later(1.0, lambda: None)
        sched.call_later(2.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert sched.pending_events == 1

    def test_mass_cancel_of_parked_timers_preserves_order(self):
        # Cancel four fifths of the far-future timers (delays 1-50 s,
        # ten to an instant), then check survivors still fire in exact
        # (time, FIFO) order.
        sched = Scheduler()
        fired = []
        timers = []
        for i in range(500):
            delay = float(i % 50) + 1.0
            timers.append(
                sched.call_later(delay, (lambda k: (lambda: fired.append(k)))(i))
            )
        survivors = [i for i in range(500) if i % 5 == 0]
        for i, timer in enumerate(timers):
            if i % 5:
                timer.cancel()
        assert sched.pending_events == len(survivors)
        sched.run_until_idle()
        expected = sorted(survivors, key=lambda i: (float(i % 50) + 1.0, i))
        assert fired == expected

    def test_cancel_of_parked_timers_during_run(self):
        # Two hundred far one-event instants, all but one cancelled from
        # a callback: each is dropped when the loop reaches it.
        sched = Scheduler()
        fired = []
        later = [sched.call_later(10.0 + i * 0.01, lambda: fired.append("late"))
                 for i in range(200)]

        def cancel_most():
            for timer in later[1:]:
                timer.cancel()

        sched.call_later(1.0, cancel_most)
        sched.run_until_idle()
        assert fired == ["late"]
        assert sched.pending_events == 0


class TestChoiceHook:
    """A tie group under ``choice_hook`` is its instant's slot: it is
    on the heap once, and a group the hook cannot resolve stays
    pending in it."""

    @staticmethod
    def three_tied():
        sched = Scheduler()
        fired = []
        for name in ("a", "b", "c"):
            sched.call_at(1.0, fired.append, name, tag=("t", name))
        return sched, fired

    def assert_still_pending_then_fifo(self, sched, fired):
        sched.choice_hook = None
        assert fired == []
        assert sched.pending_events == 3
        assert sched.pending_tags() == [("t", "a"), ("t", "b"), ("t", "c")]
        assert conservation_gap(sched) == 0
        sched.run_until_idle()
        assert fired == ["a", "b", "c"]
        assert sched.pending_events == 0
        assert sched._queue == [] and sched._slots == {}

    def test_a_raising_hook_leaves_its_group_pending(self):
        sched, fired = self.three_tied()

        def hook(time, tags):
            raise RuntimeError("resolver failed")

        sched.choice_hook = hook
        with pytest.raises(RuntimeError, match="resolver failed"):
            sched.run_until_idle()
        self.assert_still_pending_then_fifo(sched, fired)

    def test_an_out_of_range_choice_leaves_its_group_pending(self):
        sched, fired = self.three_tied()
        sched.choice_hook = lambda time, tags: 7
        with pytest.raises(SchedulerError, match="returned 7 for a tie of 3"):
            sched.run_until_idle()
        self.assert_still_pending_then_fifo(sched, fired)

    def test_a_tie_group_costs_one_heap_pop_and_one_push(self, monkeypatch):
        import heapq

        from repro.netsim import engine

        counts = {"heappop": 0, "heappush": 0}

        def counted(name):
            real = getattr(heapq, name)

            def call(*args):
                counts[name] += 1
                return real(*args)

            return call

        monkeypatch.setattr(
            engine,
            "heapq",
            types.SimpleNamespace(
                heappop=counted("heappop"), heappush=counted("heappush")
            ),
        )
        sched = Scheduler()
        fired = []
        for index in range(20):  # one instant: pushed once, then upgraded
            sched.call_at(0.1, fired.append, index, tag=("t", index))
        asked = []

        def last(time, tags):
            asked.append(len(tags))
            return len(tags) - 1

        sched.choice_hook = last
        sched.run_until_idle()
        assert fired == list(range(19, -1, -1))
        assert asked == list(range(20, 1, -1))
        assert counts == {"heappop": 1, "heappush": 1}


class TestEventArgs:
    """``call_at(time, f, *args, tag=t)``: args ride on the event
    record and behave, in every queue state, as an arg-less callback
    closing over the same values would."""

    def test_args_and_tag_are_passed_through(self):
        sched = Scheduler()
        fired = []
        tag = ("deliver", "L", 7)
        sched.call_at(1.0, lambda a, b: fired.append((a, b)), 1, 2, tag=tag)
        sched.call_at(2.0, fired.append, "at")
        assert sched.pending_tags() == [tag]
        sched.run_until_idle()
        assert fired == [(1, 2), "at"]
        assert sched.pending_tags() == []

    def test_cancelled_event_with_args_never_fires(self):
        sched = Scheduler()
        fired = []
        near = sched.call_later(0.1, fired.append, "near")  # one-event instant
        far = sched.call_later(30.0, fired.append, "far")  # far, and alone too
        sched.call_later(0.2, fired.append, "kept")
        near.cancel()
        far.cancel()
        sched.run_until_idle()
        assert fired == ["kept"]
        assert sched.pending_events == 0

    def test_parked_event_keeps_its_args_through_the_wheel(self):
        # Far-future one-event instants keep their args until they fire.
        sched = Scheduler()
        fired = []
        for i in range(5):
            sched.call_later(10.0 + i, fired.append, i)
        sched.run_until_idle()
        assert fired == [0, 1, 2, 3, 4]

    def test_mass_cancel_of_heap_residents_preserves_args_and_order(self):
        # Fifty instants of ten events each, 1-50 ms out; the cancelled
        # four fifths are skipped as they are popped, none is left over.
        sched = Scheduler()
        fired = []
        timers = [
            sched.call_later(0.001 * (i % 50) + 0.001, fired.append, i)
            for i in range(500)
        ]
        for i, timer in enumerate(timers):
            if i % 5:
                timer.cancel()
        sched.run_until_idle()
        survivors = [i for i in range(500) if i % 5 == 0]
        assert fired == sorted(survivors, key=lambda i: (i % 50, i))
        assert sched._queue == [] and sched._slots == {}

    def test_handle_is_the_queued_record_and_spent_records_are_freed(self):
        class Payload:
            pass

        sched = Scheduler()
        payloads = [Payload() for _ in range(4)]
        refs = [weakref.ref(payload) for payload in payloads]
        ignore = lambda payload: None
        near = sched.call_later(0.1, ignore, payloads[0])
        far = sched.call_later(30.0, ignore, payloads[1])
        dropped_near = sched.call_later(0.2, ignore, payloads[2])
        dropped_far = sched.call_later(40.0, ignore, payloads[3])
        # Near or far, a one-event instant's slot is the record itself.
        assert sorted(sched._queue) == [0.1, 0.2, 30.0, 40.0]
        assert sched._slots == {
            0.1: near,
            0.2: dropped_near,
            30.0: far,
            40.0: dropped_far,
        }
        dropped_near.cancel()
        dropped_far.cancel()
        del payloads[:]
        sched.run_until_idle()
        assert sched.events_processed == 2
        # The caller's handle is all that keeps a spent record (and its
        # args) alive; it sits in no cycle, so dropping the handle
        # frees it without the collector.
        assert all(ref() is not None for ref in refs)
        del near, far, dropped_near, dropped_far
        assert all(ref() is None for ref in refs)

    def test_delivered_datagram_is_not_pinned_after_delivery(self):
        net = Network(trace_enabled=False)
        subnet = net.add_subnet("LAN")
        nodes = [Node(f"n{i}", net.scheduler) for i in range(2)]
        seen = []
        for node in nodes:
            node.register_default_handler(lambda n, iface, d: seen.append(d.uid))
            net.attach(node, subnet)
        sender = nodes[0].interfaces[0]
        datagram = IPDatagram(
            src=sender.address,
            dst=nodes[1].interfaces[0].address,
            proto=PROTO_UDP,
            payload=b"x",
        )
        uid = datagram.uid
        # A tuple record takes no weak reference: watch its reference
        # count, and afterwards ask the collector whether it still exists.
        held = sys.getrefcount(datagram)
        sender.send(datagram)
        # In flight: the pending event's args hold it, and nothing else.
        assert sys.getrefcount(datagram) == held + 1
        assert [
            r[1] is datagram for r in gc.get_referrers(datagram) if type(r) is tuple
        ] == [True]
        del datagram
        net.run(until=1.0)
        gc.collect()
        assert seen == [uid]
        assert not any(
            type(obj) is IPDatagram and obj.uid == uid for obj in gc.get_objects()
        )


class TestCollectorHandBack:
    """``run()`` pauses the cyclic collector and hands it back as it
    found it, however the loop ends."""

    def test_enabled_before_paused_inside_enabled_after(self):
        sched = Scheduler()
        seen = []
        sched.call_later(1.0, lambda: seen.append(gc.isenabled()))
        assert gc.isenabled()
        sched.run_until_idle()
        assert seen == [False]
        assert gc.isenabled()

    def test_disabled_before_stays_disabled_after(self):
        sched = Scheduler()
        sched.call_later(1.0, lambda: None)
        gc.disable()
        try:
            sched.run_until_idle()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restored_when_a_callback_raises(self):
        sched = Scheduler()
        sched.call_later(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sched.run_until_idle()
        assert gc.isenabled()

    def test_restored_when_max_events_trips(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_EVENTS", 10)
        sched = Scheduler()

        def loop():
            sched.call_later(0.0, loop)

        sched.call_later(0.0, loop)
        with pytest.raises(SchedulerError):
            sched.run()
        assert gc.isenabled()

    def test_nested_run_returns_to_a_still_paused_outer_loop(self):
        outer, inner = Scheduler(), Scheduler()
        seen = []
        inner.call_later(1.0, lambda: seen.append(("inner", gc.isenabled())))
        outer.call_later(1.0, inner.run_until_idle)
        outer.call_later(2.0, lambda: seen.append(("outer", gc.isenabled())))
        outer.run_until_idle()
        assert seen == [("inner", False), ("outer", False)]
        assert gc.isenabled()


class TestClose:
    """A scheduler has an end: ``close()`` drops what is pending,
    empties the components registered with it, keeps its counters, and
    refuses work afterwards — typed and loudly, never silently."""

    def test_scheduling_and_running_on_a_closed_scheduler_raise(self):
        sched = Scheduler()
        sched.close()
        assert sched.closed
        for refused in (
            lambda: sched.call_later(1.0, print),
            lambda: sched.call_at(1.0, print),
            sched.run,
            sched.run_until_idle,
        ):
            with pytest.raises(SchedulerError, match="closed"):
                refused()

    def test_pending_events_are_dropped_unfired_and_forget_their_callback(self):
        sched = Scheduler()
        fired = []
        near = sched.call_later(0.1, fired.append, "near")
        far = sched.call_later(60.0, fired.append, "far")
        sched.close()
        assert fired == []
        for timer in (near, far):
            assert not timer.pending
            assert timer.callback is None and timer.args == ()
        assert sched._queue == [] and sched._slots == {}

    def test_counters_read_the_same_after_close(self):
        sched = Scheduler()
        registry = sched.telemetry.registry
        sched.call_later(1.0, lambda: None)
        sched.call_later(2.0, lambda: None).cancel()
        sched.call_later(90.0, lambda: None)
        sched.run(until=5.0)
        before = (sched.events_processed, sched.pending_events, sched.now)
        snapshot = registry.snapshot()
        assert snapshot["netsim.scheduler.pending_events"] == 1
        sched.close()
        assert (sched.events_processed, sched.pending_events, sched.now) == before
        assert registry.snapshot() == snapshot

    def test_registered_components_are_emptied(self):
        class Component:
            def __init__(self, sched):
                self.sched = sched
                self.timer = sched.call_later(1.0, self.tick)
                sched.register(self)

            def tick(self):
                pass

        sched = Scheduler()
        component = Component(sched)
        sched.close()
        assert vars(component) == {}

    def test_second_close_is_a_noop(self):
        sched = Scheduler()
        sched.close()
        sched.close()
        assert sched.closed

    def test_close_from_inside_a_running_callback_raises(self):
        sched = Scheduler()
        later = []
        sched.call_later(1.0, sched.close)
        sched.call_later(2.0, later.append, "still pending")
        with pytest.raises(SchedulerError, match="running callback"):
            sched.run_until_idle()
        # The heap was not pulled out from under ``run()``: the
        # scheduler is intact and finishes when asked again.
        assert not sched.closed
        sched.run_until_idle()
        assert later == ["still pending"]
        sched.close()

    def test_a_tie_group_cut_short_is_dropped_by_close(self):
        sched = Scheduler()
        fired = []
        timers = [sched.call_at(1.0, fired.append, name, tag=(name,)) for name in "abc"]

        def hook(time, tags):
            if len(tags) < 3:
                raise RuntimeError("stop inside the group")
            return 0

        sched.choice_hook = hook
        with pytest.raises(RuntimeError):
            sched.run_until_idle()
        assert fired == ["a"]
        sched.close()
        for timer in timers[1:]:
            assert not timer.pending
            assert timer.callback is None and timer.args == ()
        assert sched._queue == [] and sched._slots == {}

    def test_a_closed_ticker_chain_is_freed_by_refcount(self):
        sched = Scheduler()
        ticker = PeriodicTimer(sched, 1.0, lambda: None)
        ticker.start()
        sched.run(until=3.5)
        # ticker -> its arm -> the bound ``_tick`` -> ticker: a cycle
        # until ``close()`` makes the pending arm forget its callback.
        gone = weakref.ref(ticker)
        gc.disable()
        try:
            sched.close()
            del ticker
            assert gone() is None
        finally:
            gc.enable()


# -- the fast path against a slow reference -----------------------------------


class ReferenceTimer:
    def __init__(self, model, key, callback, args, tag):
        self.model, self.key, self.callback, self.args = model, key, callback, args
        self.tag = tag

    @property
    def pending(self):
        return self in self.model.queue

    def cancel(self):
        if self.pending:
            self.model.queue.remove(self)
            self.model.events_cancelled += 1


class ReferenceScheduler:
    """What the engine must be indistinguishable from: every pending
    event in one list sorted by ``(time, seq)``, a cancel removes the
    event on the spot — no lazy deletion — and under a
    ``choice_hook`` every firing asks it about the whole list prefix
    due at the head time, read afresh."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.events_scheduled = self.events_cancelled = self.events_processed = 0
        self.choice_hook = None

    @property
    def pending_events(self):
        return len(self.queue)

    def pending_tags(self):
        return sorted(timer.tag for timer in self.queue if timer.tag is not None)

    def call_at(self, time, callback, *args, tag=None):
        timer = ReferenceTimer(self, (time, self.events_scheduled), callback, args, tag)
        self.events_scheduled += 1
        self.queue.append(timer)
        self.queue.sort(key=lambda t: t.key)
        return timer

    def call_later(self, delay, callback, *args):
        return self.call_at(self.now + delay, callback, *args)

    def run(self, until):
        processed = 0
        max_events = engine.MAX_EVENTS
        while self.queue and self.queue[0].key[0] <= until:
            time = self.queue[0].key[0]
            tied = [timer for timer in self.queue if timer.key[0] == time]
            index = 0
            if self.choice_hook is not None and len(tied) > 1:
                index = self.choice_hook(time, [timer.tag for timer in tied])
            timer = tied[index]
            self.queue.remove(timer)
            self.now = time
            self.events_processed += 1
            timer.callback(*timer.args)
            processed += 1
            if processed >= max_events:
                raise SchedulerError(f"exceeded MAX_EVENTS={max_events}")
        self.now = max(self.now, until)


class ScriptedWorld:
    """Applies one script of operations to a scheduler and records
    everything observable; an event's callback logs its label, the
    clock and what is pending, then performs its own follow-up
    operation, so cancels, restarts and schedules also happen from
    inside callbacks.  With ``picks`` a choice hook is installed that
    logs every question and answers from ``picks`` in turn."""

    def __init__(self, scheduler, picks=None):
        self.scheduler = scheduler
        self.timers = []
        self.fired = []
        self.choices = []
        self.stopped = 0
        self.picks = picks
        if picks is not None:
            scheduler.choice_hook = self.choose

    def choose(self, time, tags):
        self.choices.append((time, list(tags)))
        return self.picks[len(self.choices) % len(self.picks)] % len(tags)

    def fire(self, label, then):
        scheduler = self.scheduler
        self.fired.append(
            (
                label,
                scheduler.now,
                scheduler.pending_events,
                scheduler.pending_tags(),
                conservation_gap(scheduler),
            )
        )
        # A restarted event carries its follow-up along, so a chain of
        # restarts need never end; both worlds cut it at the same point.
        if then is not None and len(self.fired) <= 100:
            self.apply(then)

    def apply(self, op):
        """``(kind, value, extra)``: ``later``/``at`` take a span and
        the new event's follow-up op, ``run`` a span and a
        ``MAX_EVENTS`` for that run (None: the default), ``cancel`` and ``restart`` an
        index into the handles made so far (``restart`` with its delay
        as ``extra``).  An ``at`` event is tagged with its index; a
        ``later`` one is untagged, as the product's delayed calls are,
        and a restart keeps its timer's tag."""
        kind, value, extra = op
        scheduler = self.scheduler
        tag = ("e", len(self.timers))
        if kind == "run":
            default = engine.MAX_EVENTS
            engine.MAX_EVENTS = extra or default
            try:
                scheduler.run(until=scheduler.now + value)
            except SchedulerError:
                self.stopped += 1
            finally:
                engine.MAX_EVENTS = default
        elif kind == "later":
            self.timers.append(
                scheduler.call_later(value, self.fire, len(self.timers), extra)
            )
        elif kind == "at":
            self.timers.append(
                scheduler.call_at(
                    max(value, scheduler.now), self.fire, len(self.timers), extra, tag=tag
                )
            )
        elif self.timers:
            timer = self.timers[value % len(self.timers)]
            if kind == "cancel":
                timer.cancel()
            else:
                self.timers.append(restart(scheduler, timer, extra))

    def observed(self):
        scheduler = self.scheduler
        return (
            self.fired,
            self.choices,
            self.stopped,
            scheduler.now,
            scheduler.pending_events,
            scheduler.pending_tags(),
            scheduler.events_scheduled,
            scheduler.events_cancelled,
            scheduler.events_processed,
            [timer.pending for timer in self.timers],
        )


#: Zero (a follow-up at its own instant), spans short and long enough to
#: put several events on one instant or spread them over many, and
#: values that leave ``now`` off any round grid.
_SPANS = st.sampled_from(
    [0.0, 0.001, 0.1, 0.25, 0.3, 0.4999, 0.5, 0.5001, 0.75, 1.0, 1.7, 2.5, 7.0]
) | st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
_INDEX = st.integers(min_value=0, max_value=63)
_FOLLOW_UP = st.none() | st.one_of(
    st.tuples(st.just("later"), _SPANS, st.none()),
    st.tuples(st.just("at"), _SPANS, st.none()),
    st.tuples(st.just("cancel"), _INDEX, st.none()),
    st.tuples(st.just("restart"), _INDEX, _SPANS),
)
_OPERATION = st.one_of(
    st.tuples(st.just("later"), _SPANS, _FOLLOW_UP),
    st.tuples(st.just("at"), _SPANS.map(lambda span: span * 4), _FOLLOW_UP),
    st.tuples(st.just("cancel"), _INDEX, st.none()),
    st.tuples(st.just("restart"), _INDEX, _SPANS),
    # A small ``MAX_EVENTS`` stops a run part-way, also inside a tie group.
    st.tuples(st.just("run"), _SPANS, st.none() | st.integers(min_value=1, max_value=4)),
)
#: No hook, or one answering from a drawn list of picks.
_PICKS = st.none() | st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8)


def conservation_gap(scheduler):
    return scheduler.events_scheduled - (
        scheduler.events_processed
        + scheduler.events_cancelled
        + scheduler.pending_events
    )


_FOUR_TIED = [("later", 1.0, None)] * 4


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPERATION, max_size=40), _PICKS)
# Tie groups under the hook, made sure of: members that schedule
# zero-delay peers, members that cancel tied peers, and a ``MAX_EVENTS``
# that stops the run with the group half fired.
@example(
    [("later", 1.0, ("later", 0.0, None))] * 2 + _FOUR_TIED + [("run", 2.0, None)],
    [1, 0, 2, 5],
)
@example(
    [("later", 1.0, ("cancel", 3, None)), ("later", 1.0, ("cancel", 5, None))]
    + _FOUR_TIED
    + [("run", 2.0, None)],
    [3, 1, 2],
)
@example(_FOUR_TIED + [("run", 2.0, 2), ("run", 2.0, 1), ("run", 2.0, None)], [2, 1])
# One instant scheduled across a run that stops short of it: the second
# event upgrades the first's bare ``Timer`` slot to a deque behind it,
# also with another instant queued in between.
@example([("at", 1.0, None), ("run", 0.0, None), ("at", 1.0, None)], None)
@example(
    [("at", 1.0, None), ("run", 0.0, None), ("later", 0.1, None), ("at", 1.0, None)],
    None,
)
# The same after a run that stops just before an earlier instant.
@example(
    [("at", 0.8, None), ("at", 1.0, None), ("run", 0.79, None), ("at", 1.0, None)],
    None,
)
# ``MAX_EVENTS`` stops the run in the middle of a 1,000-event instant.
@example([("later", 0.1, None)] * 1000 + [("run", 1.0, 500)], None)
# A one-event instant is off the queue before it fires: a follow-up at
# delay 0 opens its instant afresh, with and without the hook (which a
# one-event instant never asks).
@example([("later", 1.0, ("later", 0.0, None)), ("run", 2.0, None)], None)
@example(
    [("later", 1.0, ("later", 0.0, None)), ("later", 1.0, None), ("run", 2.0, None)],
    None,
)
@example([("later", 1.0, ("later", 0.0, None)), ("run", 2.0, None)], [0, 1])
@example(
    [("later", 1.0, ("later", 0.0, None))] + _FOUR_TIED[:1] + [("run", 2.0, None)],
    [1, 0],
)
# A one-event instant whose callback runs its own scheduler: the nested
# loop never sees the event that called it, fires a tie group further
# on, and the outer loop carries on from where it stopped.
@example(
    [("later", 1.0, ("run", 0.5, None)), ("later", 1.2, None), ("later", 1.2, None)]
    + [("later", 1.7, None), ("run", 2.0, None)],
    None,
)
@example(
    [("later", 1.0, ("run", 0.5, None)), ("later", 1.2, None), ("later", 1.2, None)]
    + [("later", 1.7, None), ("run", 2.0, None)],
    [1, 0],
)
def test_engine_is_indistinguishable_from_a_sorted_list(script, picks):
    real = ScriptedWorld(Scheduler(), picks)
    model = ScriptedWorld(ReferenceScheduler(), picks)
    # Run on, then cancel whatever is still re-arming itself and drain.
    drain = [("run", 20.0, None)]
    drain += [("cancel", index, None) for index in range(64)]
    drain += [("run", 20.0, None)]
    for op in script + drain:
        real.apply(op)
        model.apply(op)
        assert real.observed() == model.observed()
        scheduler = real.scheduler
        assert conservation_gap(scheduler) == 0
    if len(real.timers) <= 64:  # every handle was reachable by the cancels
        assert scheduler.pending_events == 0
        assert scheduler._queue == [] and scheduler._slots == {}


def test_conservation_law_holds_when_read_from_inside_a_callback():
    sched = Scheduler()
    gaps = []
    doomed = sched.call_later(5.0, lambda: None)

    def read():
        gaps.append(conservation_gap(sched))
        doomed.cancel()
        sched.call_later(1.0, lambda: gaps.append(conservation_gap(sched)))
        gaps.append(conservation_gap(sched))
        assert scheduler_conservation(sched) == []

    sched.call_later(1.0, read)
    sched.run_until_idle()
    assert gaps == [0, 0, 0]


def test_conservation_law_survives_a_callback_that_raises():
    sched = Scheduler()
    fired = []
    sched.call_later(1.0, lambda: 1 / 0)
    sched.call_later(2.0, fired.append, "second")
    with pytest.raises(ZeroDivisionError):
        sched.run_until_idle()
    assert (sched.events_scheduled, sched.events_processed) == (2, 1)
    assert (sched.events_cancelled, sched.pending_events) == (0, 1)
    assert scheduler_conservation(sched) == []
    sched.run_until_idle()
    assert fired == ["second"]
    assert scheduler_conservation(sched) == []
