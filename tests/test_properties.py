"""Property-based protocol tests: random scenarios, global invariants.

Hypothesis drives randomised join/leave schedules on random topologies
and checks that the CBT invariants hold at quiescence:

* the union of FIB parent/child state forms a loop-free forest;
* parent and child views agree pairwise;
* every current member receives exactly one copy of a probe packet;
* no pending-join or quitting state survives quiescence.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.scenarios import (
    build_cbt_group,
    pick_members,
    send_data,
)
from repro.topology.generators import waxman_network

SCENARIO_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def churn_scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=100))
    n = draw(st.integers(min_value=8, max_value=18))
    member_count = draw(st.integers(min_value=2, max_value=min(6, n - 1)))
    leave_count = draw(st.integers(min_value=0, max_value=member_count - 1))
    core_index = draw(st.integers(min_value=0, max_value=n - 1))
    return seed, n, member_count, leave_count, core_index


@given(scenario=churn_scenarios())
@SCENARIO_SETTINGS
def test_quiescent_state_invariants(scenario):
    seed, n, member_count, leave_count, core_index = scenario
    net = waxman_network(n, seed=seed)
    members = pick_members(net, member_count, seed=seed)
    core = f"N{core_index}"
    domain, group = build_cbt_group(net, members, cores=[core])
    # Random partial leaves.
    for member in members[:leave_count]:
        domain.leave_host(member, group)
    net.run(until=net.scheduler.now + 45.0)

    # Invariant 1: consistency + loop-freedom.
    domain.assert_tree_consistent(group)

    # Invariant 2: no lingering transient state.
    for name, protocol in domain.protocols.items():
        assert not protocol.pending, f"{name} still pending"
        assert not protocol.quits, f"{name} still quitting"

    # Invariant 3: exactly-once delivery to remaining members.
    remaining = members[leave_count:]
    if len(remaining) >= 2:
        uid = send_data(net, remaining[0], group, count=1)[0]
        for member in remaining[1:]:
            copies = sum(
                1 for d in net.host(member).delivered if d.uid == uid
            )
            assert copies == 1, f"{member}: {copies} copies"


@given(
    seed=st.integers(min_value=0, max_value=50),
    sender_count=st.integers(min_value=1, max_value=4),
)
@SCENARIO_SETTINGS
def test_cbt_state_independent_of_sender_count(seed, sender_count):
    """E1's scaling property as a hypothesis invariant: FIB entry
    count never depends on how many sources transmit."""
    net = waxman_network(12, seed=seed)
    members = pick_members(net, 4, seed=seed)
    domain, group = build_cbt_group(net, members, cores=["N0"])
    before = {n: len(p.fib) for n, p in domain.protocols.items()}
    for sender in members[:sender_count]:
        send_data(net, sender, group, count=1)
    after = {n: len(p.fib) for n, p in domain.protocols.items()}
    assert before == after


@given(seed=st.integers(min_value=0, max_value=50))
@SCENARIO_SETTINGS
def test_total_leave_dismantles_tree(seed):
    net = waxman_network(10, seed=seed)
    members = pick_members(net, 3, seed=seed)
    domain, group = build_cbt_group(net, members, cores=["N1"])
    for member in members:
        domain.leave_host(member, group)
    net.run(until=net.scheduler.now + 60.0)
    for name, protocol in domain.protocols.items():
        entry = protocol.fib.get(group)
        if entry is not None:
            # Only a bare root entry on the primary core may remain.
            assert protocol.is_primary_core_for(group)
            assert not entry.has_children
            assert not entry.has_parent
