"""Tests for the FIB (spec Figure 4) and transient join state."""

from repro.core.constants import JoinSubcode
from repro.core.fib import FIB, FIBEntry
from repro.core.state import CachedJoin, PendingJoin, RejoinAttempt
from repro.netsim.address import IPv4Address, group_address

GROUP = group_address(0)
PARENT = IPv4Address("10.0.0.1")
CHILD_A = IPv4Address("10.0.1.1")
CHILD_B = IPv4Address("10.0.2.1")


class TestFIBEntry:
    def test_fresh_entry_is_bare(self):
        entry = FIBEntry(group=GROUP)
        assert not entry.has_parent
        assert not entry.has_children
        assert entry.state_size() == 0

    def test_parent_lifecycle(self):
        entry = FIBEntry(group=GROUP)
        entry.set_parent(PARENT, 2)
        assert entry.has_parent
        assert entry.parent_vif == 2
        entry.clear_parent()
        assert not entry.has_parent
        assert entry.parent_vif is None

    def test_children_lifecycle(self):
        entry = FIBEntry(group=GROUP)
        entry.add_child(CHILD_A, 0)
        entry.add_child(CHILD_B, 1)
        assert entry.has_children
        assert entry.remove_child(CHILD_A)
        assert not entry.remove_child(CHILD_A)  # already gone
        assert entry.children == {CHILD_B: 1}

    def test_tree_vifs_include_parent(self):
        entry = FIBEntry(group=GROUP)
        entry.set_parent(PARENT, 0)
        entry.add_child(CHILD_A, 1)
        assert sorted(entry.kernel.tree_vifs) == [0, 1]

    def test_state_size_counts_relationships(self):
        entry = FIBEntry(group=GROUP)
        entry.set_parent(PARENT, 0)
        entry.add_child(CHILD_A, 1)
        entry.add_child(CHILD_B, 1)
        assert entry.state_size() == 3


class TestFIB:
    def test_get_or_create_idempotent(self):
        fib = FIB()
        a = fib.get_or_create(GROUP)
        b = fib.get_or_create(GROUP)
        assert a is b
        assert len(fib) == 1

    def test_contains_and_remove(self):
        fib = FIB()
        fib.get_or_create(GROUP)
        assert GROUP in fib
        fib.remove(GROUP)
        assert GROUP not in fib
        fib.remove(GROUP)  # idempotent

    def test_groups_sorted(self):
        fib = FIB()
        g2, g1 = group_address(2), group_address(1)
        fib.get_or_create(g2)
        fib.get_or_create(g1)
        assert fib.groups() == [g1, g2]

    def test_total_state_sums_entries(self):
        fib = FIB()
        entry1 = fib.get_or_create(group_address(1))
        entry1.set_parent(PARENT, 0)
        entry2 = fib.get_or_create(group_address(2))
        entry2.add_child(CHILD_A, 1)
        entry2.add_child(CHILD_B, 2)
        assert fib.total_state() == 3


class TestPendingJoin:
    def make_pending(self, downstream=None):
        return PendingJoin(
            group=GROUP,
            origin=CHILD_A,
            subcode=JoinSubcode.ACTIVE_JOIN,
            target_core=PARENT,
            cores=(PARENT,),
            upstream_address=PARENT,
            upstream_vif=0,
            created_at=0.0,
            downstream_address=downstream,
            downstream_vif=0 if downstream else None,
        )

    def test_originator_detection(self):
        assert self.make_pending().originated_here
        assert not self.make_pending(downstream=CHILD_B).originated_here

    def test_caching(self):
        pend = self.make_pending()
        pend.cache(
            CachedJoin(
                origin=CHILD_B,
                subcode=JoinSubcode.ACTIVE_JOIN,
                downstream_address=CHILD_B,
                downstream_vif=1,
                cores=(PARENT,),
            )
        )
        assert len(pend.cached) == 1

    def test_cancel_timers_without_timers(self):
        self.make_pending().cancel_timers()  # must not raise


class TestRejoinAttempt:
    def test_core_cycling(self):
        cores = (IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"))
        attempt = RejoinAttempt(group=GROUP, started_at=0.0, cores=cores)
        assert attempt.current_core() == cores[0]
        assert attempt.advance_core() == cores[1]
        assert attempt.advance_core() == cores[0]  # wraps
        assert attempt.attempts == 2

    def test_expiry(self):
        attempt = RejoinAttempt(group=GROUP, started_at=10.0, cores=(PARENT,))
        assert not attempt.expired(50.0, reconnect_timeout=90.0)
        assert attempt.expired(100.0, reconnect_timeout=90.0)
