"""Tests for the churn workload generator."""

import pytest

from repro.harness.scenarios import build_cbt_group, pick_members, send_data
from repro.harness.workload import (
    ChurnActionError,
    ChurnEvent,
    ChurnSchedule,
    apply_churn,
    generate_churn,
)
from repro.topology.generators import waxman_network

HOSTS = [f"H_N{i}" for i in range(8)]


class TestGenerateChurn:
    def test_deterministic_per_seed(self):
        a = generate_churn(HOSTS, duration=100, mean_interval=5, seed=3)
        b = generate_churn(HOSTS, duration=100, mean_interval=5, seed=3)
        assert a.events == b.events

    def test_events_within_duration(self):
        schedule = generate_churn(HOSTS, duration=50, mean_interval=2, seed=1, start=10)
        assert all(10 <= e.time < 60 for e in schedule.events)

    def test_leaves_only_follow_joins(self):
        schedule = generate_churn(HOSTS, duration=200, mean_interval=1, seed=2)
        members = set()
        for event in schedule.events:
            if event.action == "join":
                assert event.host not in members
                members.add(event.host)
            else:
                assert event.host in members
                members.discard(event.host)

    def test_rate_scales_event_count(self):
        slow = generate_churn(HOSTS, duration=100, mean_interval=10, seed=4)
        fast = generate_churn(HOSTS, duration=100, mean_interval=1, seed=4)
        assert len(fast.events) > len(slow.events)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            generate_churn(HOSTS, duration=10, mean_interval=0, seed=0)

    def test_members_at_end(self):
        schedule = ChurnSchedule(
            events=[
                ChurnEvent(1.0, "a", "join"),
                ChurnEvent(2.0, "b", "join"),
                ChurnEvent(3.0, "a", "leave"),
            ]
        )
        assert schedule.members_at_end() == ["b"]
        assert schedule.joins == 2
        assert schedule.leaves == 1


class TestActionValidation:
    def test_event_rejects_unknown_action(self):
        with pytest.raises(ChurnActionError) as excinfo:
            ChurnEvent(1.0, "a", "jion")
        message = str(excinfo.value)
        assert "jion" in message and "join, leave" in message

    def test_schedule_rejects_unknown_action(self):
        # A schedule built from externally supplied dicts (the CI
        # replay path) bypasses ChurnEvent construction-time checks
        # when events arrive pre-built, so the schedule re-validates.
        bad = ChurnEvent(1.0, "a", "join")
        object.__setattr__(bad, "action", "depart")
        with pytest.raises(ChurnActionError):
            ChurnSchedule(events=[bad])

    def test_error_is_a_value_error(self):
        # Callers catching the old silent-skip era's ValueError keep
        # working.
        with pytest.raises(ValueError):
            ChurnEvent(2.0, "b", "")

    def test_valid_actions_accepted(self):
        schedule = ChurnSchedule(
            events=[ChurnEvent(1.0, "a", "join"), ChurnEvent(2.0, "a", "leave")]
        )
        assert schedule.joins == 1 and schedule.leaves == 1


class TestApplyChurn:
    def test_domain_tracks_schedule(self):
        net = waxman_network(10, seed=6)
        seeds = pick_members(net, 2, seed=6)
        domain, group = build_cbt_group(net, seeds, cores=["N0"])
        hosts = sorted(net.hosts)
        schedule = generate_churn(
            hosts, duration=20, mean_interval=2, seed=6, start=net.scheduler.now
        )
        apply_churn(net, domain, group, schedule, settle_after=40.0)
        domain.assert_tree_consistent(group)
        # The seeds joined before the churn began.
        seeded = ChurnSchedule(
            events=[ChurnEvent(0.0, seed, "join") for seed in seeds] + schedule.events
        )
        final_members = set(seeded.members_at_end())
        if len(final_members) >= 2:
            final = sorted(final_members)
            uid = send_data(net, final[0], group, count=1)[0]
            for member in final[1:]:
                copies = sum(
                    1 for d in net.host(member).delivered if d.uid == uid
                )
                assert copies == 1, member
