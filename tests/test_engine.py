"""Tests for the discrete-event scheduler."""

import gc
import weakref

import pytest

from repro.netsim.engine import (
    PeriodicTimer,
    Scheduler,
    SchedulerError,
    run_phases,
)
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_UDP
from repro.topology.builder import Network


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

    def test_events_scheduled_during_run_are_processed(self):
        sched = Scheduler()
        fired = []

        def first():
            fired.append("first")
            sched.call_later(1.0, lambda: fired.append("second"))

        sched.call_later(1.0, first)
        sched.run_until_idle()
        assert fired == ["first", "second"]

    def test_max_events_guard_trips_on_livelock(self):
        sched = Scheduler()

        def loop():
            sched.call_later(0.0, loop)

        sched.call_later(0.0, loop)
        with pytest.raises(SchedulerError):
            sched.run_until_idle(max_events=100)

    def test_events_processed_counter(self):
        sched = Scheduler()
        for _ in range(4):
            sched.call_later(1.0, lambda: None)
        sched.run_until_idle()
        assert sched.events_processed == 4

    def test_peek_next_time(self):
        sched = Scheduler()
        assert sched.peek_next_time() is None
        sched.call_later(2.5, lambda: None)
        assert sched.peek_next_time() == 2.5

    def test_peek_skips_cancelled(self):
        sched = Scheduler()
        timer = sched.call_later(1.0, lambda: None)
        sched.call_later(2.0, lambda: None)
        timer.cancel()
        assert sched.peek_next_time() == 2.0


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
        timer.restart(5.0)
        sched.run_until_idle()
        assert fired == [5.0]

    def test_restart_keeps_args_and_tag(self):
        sched = Scheduler()
        fired = []
        tag = ("deliver", "x")
        timer = sched.call_later(1.0, fired.append, "payload", tag=tag)
        again = timer.restart(5.0)
        # The cancelled original leaves the tag index; the restarted
        # event is back in it.
        assert sched.pending_tags() == [tag]
        assert again.fires_at == 5.0
        sched.run_until_idle()
        assert fired == ["payload"]
        assert sched.pending_tags() == []

    def test_restart_after_firing_reuses_the_snapshot(self):
        # The event record is recycled once it fires; the handle's own
        # snapshot of (callback, args, tag) is what restart re-arms.
        sched = Scheduler()
        fired = []
        timer = sched.call_later(1.0, fired.append, "again", tag=("t",))
        sched.run_until_idle()
        sched.call_later(0.5, fired.append, "other")  # reuses the slab record
        timer.restart(2.0)
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

    def test_tick_callback_receives_args(self):
        sched = Scheduler()
        ticks = []
        PeriodicTimer(sched, 2.0, ticks.append, "tick").start()
        sched.run(until=5.0)
        assert ticks == ["tick", "tick"]

    def test_reschedule_changes_future_interval(self):
        sched = Scheduler()
        ticks = []
        ticker = PeriodicTimer(sched, 1.0, lambda: ticks.append(sched.now))
        ticker.start()
        sched.call_later(1.5, lambda: ticker.reschedule(3.0))
        sched.run(until=8.0)
        assert ticks == [1.0, 2.0, 5.0, 8.0]


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

    def test_mass_cancel_compaction_preserves_order(self):
        # Cancel enough timers to trigger heap compaction, then check
        # survivors still fire in exact (time, FIFO) order.
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

    def test_cancel_during_run_with_compaction(self):
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


class TestEventArgs:
    """``call_later(delay, f, *args, tag=t)``: args ride on the event
    record and behave, in every queue state, as an arg-less callback
    closing over the same values would."""

    def test_args_and_tag_are_passed_through(self):
        sched = Scheduler()
        fired = []
        tag = ("deliver", "L", 7)
        sched.call_later(1.0, lambda a, b: fired.append((a, b)), 1, 2, tag=tag)
        sched.call_at(2.0, fired.append, "at")
        assert sched.pending_tags() == [tag]
        sched.run_until_idle()
        assert fired == [(1, 2), "at"]
        assert sched.pending_tags() == []

    def test_cancelled_event_with_args_never_fires(self):
        sched = Scheduler()
        fired = []
        near = sched.call_later(0.1, fired.append, "near")  # heap resident
        far = sched.call_later(30.0, fired.append, "far")  # wheel resident
        sched.call_later(0.2, fired.append, "kept")
        near.cancel()
        far.cancel()
        sched.run_until_idle()
        assert fired == ["kept"]
        assert sched.pending_events == 0

    def test_parked_event_keeps_its_args_through_the_wheel(self):
        sched = Scheduler()
        fired = []
        for i in range(5):
            sched.call_later(10.0 + i, fired.append, i)
        sched.run_until_idle()
        assert fired == [0, 1, 2, 3, 4]

    def test_compaction_preserves_args_and_order(self):
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

    def test_recycled_event_records_hold_no_args(self):
        sched = Scheduler()
        fired = []
        cancelled = sched.call_later(0.1, fired.append, object())
        sched.call_later(0.2, fired.append, object())
        cancelled.cancel()
        sched.run_until_idle()
        assert sched._slab
        assert all(
            event.args == () and event.callback is None and event.tag is None
            for event in sched._slab
        )

    def test_delivered_datagram_is_not_pinned_by_the_event_slab(self):
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
        ref = weakref.ref(datagram)
        sender.send(datagram)
        del datagram
        assert ref() is not None  # in flight: the pending event holds it
        net.run(until=1.0)
        gc.collect()
        assert seen == [uid]
        assert ref() is None


def test_run_phases_schedules_and_runs():
    sched = Scheduler()
    fired = []
    run_phases(sched, [(2.0, lambda: fired.append("b")), (1.0, lambda: fired.append("a"))])
    assert fired == ["a", "b"]
