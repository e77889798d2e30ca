"""Property suite for the backward search (ISSUE-8 satellite 1).

Two guarantees are pinned here:

* **confirm-or-reject** — whatever the seed, budget, or deviation
  bound, the backward engine never reports an unconfirmed
  counterexample: every report's stored outcome is a forward replay
  whose oracle fired on the targeted predicate, and the accounting
  (``confirmed + rejected <= tried == runs``) always balances.
* **soundness** — each predicate flags exactly the states the
  existing oracle flags on the four golden scenarios: on the healthy
  (converged) worlds both flag nothing, on a violating state the
  predicate's selection is precisely the oracle's matching findings,
  and the oracle's full finding vocabulary is partitioned by the
  predicate catalogue (no finding is unowned or doubly owned).
"""

from __future__ import annotations

from unittest import mock

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False

from repro.core.audit import convergence_findings, transition_findings
from repro.core.router import CBTProtocol
from repro.explore.backward import backward_search
from repro.explore.predicates import PREDICATES, classify, get_predicate
from repro.explore.scenarios import get_scenario
from repro.telemetry.conservation import check_conservation

GOLDEN_SCENARIOS = ("joins-race", "quit-race", "lan-proxy", "migration-race")


def _settled_world(name):
    """Build a golden scenario's world and run it to convergence with
    no interference — the healthy baseline both oracles agree on."""
    scenario = get_scenario(name)
    world = scenario.build()
    scheduler = world.network.scheduler
    start = scheduler.now
    for offset, action in world.actions:
        scheduler.call_at(start + offset, action)
    world.network.run(until=start + scenario.window + scenario.settle)
    return scenario, world


def _oracle_findings(world):
    findings = [
        str(finding)
        for finding in convergence_findings(
            world.domain, world.group, world.members
        )
    ]
    findings.extend(
        str(finding)
        for finding in transition_findings(world.domain, check_loops=True)
    )
    findings.extend(check_conservation(world.network, world.domain))
    return findings


# -- confirm-or-reject ------------------------------------------------------


if HAVE_HYPOTHESIS:

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.integers(min_value=1, max_value=20),
        max_deviations=st.integers(min_value=1, max_value=2),
    )
    def test_backward_never_reports_unconfirmed(seed, budget, max_deviations):
        result = backward_search(
            get_scenario("joins-race"),
            max_deviations=max_deviations,
            budget=budget,
            seed=seed,
        )
        stats = result.stats
        # Accounting always balances, whatever the budget cut off.
        assert stats.runs <= budget
        assert stats.candidates_tried == stats.runs
        assert (
            stats.candidates_confirmed + stats.candidates_rejected
            <= stats.candidates_tried
        )
        assert stats.candidates_confirmed >= len(result.counterexamples)
        # Every report is confirmed: its stored outcome is a forward
        # replay whose oracle fired on the targeted predicate.
        for counterexample in result.counterexamples:
            assert counterexample.outcome.violation is not None
            predicate = get_predicate(counterexample.predicate)
            assert predicate.matches(
                counterexample.outcome.violation.findings
            )
            assert counterexample.source == "backward"
            assert counterexample.seed == seed

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_backward_same_seed_same_outcome(seed):
        kwargs = dict(max_deviations=2, budget=12, seed=seed)
        first = backward_search(get_scenario("joins-race"), **kwargs)
        second = backward_search(get_scenario("joins-race"), **kwargs)
        assert first.stats == second.stats
        assert [c.schedule for c in first.counterexamples] == [
            c.schedule for c in second.counterexamples
        ]


def test_confirmed_report_is_a_real_replayed_violation():
    """Deterministic confirming case (bug 11 re-introduced): the
    report exists *because* a forward replay violated on the goal."""
    with mock.patch.object(
        CBTProtocol, "_nack_stale_cached", lambda self, pend: None
    ):
        result = backward_search(
            get_scenario("migration-race"),
            [get_predicate("member-stranded")],
            max_deviations=3,
            budget=250,
            seed=0,
            stop_on_first=True,
        )
    assert result.counterexamples
    counterexample = result.counterexamples[0]
    violation = counterexample.outcome.violation
    assert violation is not None
    predicate = get_predicate("member-stranded")
    assert predicate.select(violation.findings)
    assert result.stats.candidates_confirmed >= 1


# -- soundness: predicates == oracle on the golden scenarios ----------------


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_predicates_agree_with_oracle_on_healthy_world(name):
    """On the converged golden worlds the oracle flags nothing — and
    neither does any predicate (no false alarms on healthy state)."""
    _scenario, world = _settled_world(name)
    findings = _oracle_findings(world)
    assert findings == [], f"{name} did not converge clean"
    for predicate in PREDICATES.values():
        assert (
            predicate.holds(world.domain, world.group, world.members) == []
        ), f"{predicate.name} flags a state the oracle does not on {name}"


def test_predicates_select_exactly_the_oracle_findings_when_violating():
    """On a violating state (bug 11 re-introduced) each predicate's
    selection is precisely the subset of oracle findings bearing its
    markers, the union covers everything, and nothing is double-owned."""
    with mock.patch.object(
        CBTProtocol, "_nack_stale_cached", lambda self, pend: None
    ):
        result = backward_search(
            get_scenario("migration-race"),
            [get_predicate("member-stranded")],
            max_deviations=3,
            budget=250,
            seed=0,
            stop_on_first=True,
        )
    findings = result.counterexamples[0].outcome.violation.findings
    assert findings
    buckets = classify(findings)
    assert "unclassified" not in buckets, buckets
    assert "ambiguous" not in buckets, buckets
    covered = [line for lines in buckets.values() for line in lines]
    assert sorted(covered) == sorted(findings)
    stranded = get_predicate("member-stranded").select(findings)
    assert any("no attached on-tree router" in line for line in stranded)


#: One representative finding per message template the oracle stack
#: (the ``repro.core.audit`` sweeps, telemetry conservation laws) can
#: emit.  The partition pin below fails loudly when a new oracle
#: finding is added without an owning predicate — extend the
#: catalogue (or this vocabulary) in the same change.
ORACLE_VOCABULARY = (
    "router R1 group 239.0.0.1: lists itself as parent",
    "router R1 group 239.0.0.1: lists itself (10.0.1.1) as a child",
    "router R2 group 239.0.0.1: parent pointers form a loop R2 -> R3 -> R2",
    "member LAN 10.0.3.0/24 has no attached on-tree router",
    "group 239.0.0.1: member LAN 10.0.3.0/24 has group members but no "
    "attached on-tree router",
    "router R3 group 239.0.0.1: parent chain ends at non-core R5",
    "router R4 group 239.0.0.1: stranded subtree root: no parent, not a "
    "core, and no re-attachment in progress",
    "router R5 group 239.0.0.1: pending join is 12.0s old",
    "router R5 group 239.0.0.1: pending join has no live expiry timer",
    "router R6 group 239.0.0.1: quit in progress with no live retry timer",
    "router R7 group 239.0.0.1: orphaned FIB entry: no parent, children, "
    "members, or core role",
    "router R8 group 239.0.0.1: parent 10.0.9.9 is not a known CBT router",
    "router R8 group 239.0.0.1: parent R9 does not list this router as a "
    "child",
    "router R9 group 239.0.0.1: child R8 holds no state for the group",
    "group 239.0.0.1: member LAN 10.0.4.0/24 served by multiple on-tree "
    "routers",
    "member B group 239.0.0.1: data can never arrive: no on-tree router "
    "on member LAN 10.0.2.0/24 is reachable from a core over child links",
    "link L_R1_R2: negative in-flight (-1)",
    "link L_R1_R2: attempts 5 != tx 3 + pre-wire drops 1",
    "R1: protocol tx 4 != wire tx 3",
)


def test_oracle_vocabulary_is_partitioned_by_the_catalogue():
    buckets = classify(ORACLE_VOCABULARY)
    assert "unclassified" not in buckets, buckets.get("unclassified")
    assert "ambiguous" not in buckets, buckets.get("ambiguous")
    # Every predicate owns at least one vocabulary line.
    assert set(buckets) == set(PREDICATES)
