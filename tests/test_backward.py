"""Tests for the fault-directed backward search (repro.explore.backward).

Covers the predicate catalogue, the guided confirmation search (stats
accounting, determinism, confirm-by-replay provenance), and the
acceptance demonstration: with a known bug
temporarily re-introduced, the backward search confirms a violation at
a schedule depth strictly beyond what the forward ``--depth`` default
can reach, on a budget the forward DFS would burn below depth 6.

The re-introduced bug is bug 11 (the stale-cached-join livelock found
*by* this machinery and fixed in ``CBTProtocol._nack_stale_cached``):
disabling the fix restores the historical faulty behaviour without
touching any other code path.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from unittest import mock

import pytest

from repro.cli import main
from repro.core.router import CBTProtocol
from repro.explore import backward
from repro.explore.backward import backward_search
from repro.explore.engine import run_schedule
from repro.explore.predicates import PREDICATES, classify, get_predicate
from repro.explore.scenarios import get_scenario, scenario_options

#: The forward CLI depth default ("repro explore" without --depth).
FORWARD_DEPTH_DEFAULT = 3
#: The deeper bound the nightly forward tier uses.
NIGHTLY_FORWARD_DEPTH = 5


def _disable_bug11_fix():
    """Re-introduce bug 11: skip the stale-cached-join NACK."""
    return mock.patch.object(
        CBTProtocol, "_nack_stale_cached", lambda self, pend: None
    )


# -- predicate catalogue ----------------------------------------------------


def test_predicate_catalogue_is_complete():
    assert set(PREDICATES) == {
        "forwarding-loop",
        "member-stranded",
        "non-core-root",
        "packet-never-arrives",
        "conservation-broken",
    }
    for predicate in PREDICATES.values():
        assert predicate.markers, predicate.name
        assert predicate.triggers, predicate.name
        assert predicate.description


def test_predicate_markers_are_pairwise_disjoint():
    """A finding must belong to exactly one predicate (classify is a
    partition), so no marker may be a substring of another predicate's
    marker."""
    for a in PREDICATES.values():
        for b in PREDICATES.values():
            if a.name == b.name:
                continue
            for marker_a in a.markers:
                for marker_b in b.markers:
                    assert marker_a not in marker_b and marker_b not in marker_a, (
                        f"{a.name}:{marker_a!r} overlaps {b.name}:{marker_b!r}"
                    )


def test_get_predicate_rejects_unknown():
    with pytest.raises(KeyError, match="unknown predicate"):
        get_predicate("no-such-goal")


def test_classify_partitions_known_findings():
    buckets = classify(
        [
            "router R1 group 239.0.0.1: parent pointers form a loop R1 -> R2",
            "member LAN 10.0.0.0/24 has no attached on-tree router",
            "parent chain ends at non-core R3",
            "link L_R1_R2: negative in-flight (-1)",
        ]
    )
    assert sorted(buckets) == [
        "conservation-broken",
        "forwarding-loop",
        "member-stranded",
        "non-core-root",
    ]
    assert "unclassified" not in buckets and "ambiguous" not in buckets


def test_predicate_holds_runs_the_oracle(  ):
    """`holds` on a converged healthy world reports nothing."""
    scenario = get_scenario("joins-race")
    options = scenario_options(scenario, max_decisions=0)
    outcome = run_schedule(scenario, (), options, limit=0)
    assert outcome.violation is None


# -- the guided confirmation search -----------------------------------------


def test_backward_search_clean_scenario_confirms_nothing():
    """On the fixed protocol a bounded budget rejects every chain."""
    result = backward_search(
        get_scenario("joins-race"), max_deviations=2, budget=40, seed=3
    )
    assert result.ok
    assert not result.counterexamples
    stats = result.stats
    assert stats.predicates_tried == len(PREDICATES)
    assert stats.candidates_confirmed == 0
    assert stats.runs <= 40
    assert stats.candidates_tried == stats.runs


@pytest.mark.parametrize(
    "bound",
    [
        {"max_deviations": -2},
        {"budget": -1},
        {"max_deviations": True},
        {"budget": 1.5},
    ],
)
def test_backward_search_rejects_a_bound_it_could_never_reach(bound):
    """The search's stops are ``left == 0`` and ``runs >= budget``: a
    bound that can never reach its stop fails typed before any replay."""
    with mock.patch("repro.explore.backward.run_schedule") as replay:
        with pytest.raises(ValueError, match=next(iter(bound))):
            backward_search(get_scenario("joins-race"), **bound)
    replay.assert_not_called()


def test_backward_search_accepts_zero_bounds():
    result = backward_search(get_scenario("joins-race"), max_deviations=0, budget=0)
    assert result.stats.runs == 0


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_the_search_branches_only_on_its_predicates_triggers(name):
    """The trigger set a search branches on is its predicate's own
    ``triggers``: every chain expansion asks for exactly that set, and
    the decisions it may perturb are those at or past ``lo`` that are
    expandable and name a trigger type, drops ahead of orders, the same
    whatever order the triggers are listed in."""
    predicate = get_predicate(name)
    real = backward._relevant_decisions
    expansions = []

    def spy(outcome, triggers, lo):
        chosen = real(outcome, triggers, lo)
        expansions.append((outcome, triggers, lo, chosen))
        return chosen

    with mock.patch.object(backward, "_relevant_decisions", spy):
        backward_search(
            get_scenario("migration-race"),
            [predicate],
            max_deviations=2,
            budget=8,
            seed=0,
        )
    assert expansions and any(chosen for *_, chosen in expansions)
    for outcome, triggers, lo, chosen in expansions:
        assert triggers is predicate.triggers
        eligible = [
            decision
            for decision in outcome.decisions
            if decision.position >= lo
            and decision.expandable
            and any(t in label for t in triggers for label in decision.labels)
        ]
        assert sorted(chosen, key=lambda d: d.position) == eligible
        kinds = [decision.kind == "drop" for decision in chosen]
        assert kinds == sorted(kinds, reverse=True)  # drops first
        assert real(outcome, tuple(reversed(triggers)), lo) == chosen


def test_every_replay_records_out_to_the_horizon():
    """Each confirmation replay records decisions out to the one
    module horizon, :data:`LIMIT`, whatever predicate it serves."""
    assert backward.LIMIT == 64
    with mock.patch.object(
        backward, "run_schedule", wraps=backward.run_schedule
    ) as replay:
        result = backward_search(
            get_scenario("joins-race"), max_deviations=1, budget=12, seed=2
        )
    assert replay.call_count == result.stats.runs > 0
    assert {call.kwargs["limit"] for call in replay.call_args_list} == {
        backward.LIMIT
    }


@pytest.mark.parametrize(
    "field", ["max_decisions", "max_alternatives", "drop_budget", "max_runs"]
)
def test_explore_options_reject_a_negative_bound(field):
    """Construction applies the schedule-file rule (a non-negative int,
    not a bool) to every count bound."""
    scenario = get_scenario("joins-race")
    for bad in (-1, True, 2.0):
        with pytest.raises(ValueError, match=field):
            scenario_options(scenario, **{field: bad})
    assert getattr(scenario_options(scenario, **{field: 0}), field) == 0


def test_backward_search_is_deterministic_per_seed():
    kwargs = dict(max_deviations=2, budget=30, seed=11)
    first = backward_search(get_scenario("joins-race"), **kwargs)
    second = backward_search(get_scenario("joins-race"), **kwargs)
    assert first.stats == second.stats
    assert [c.schedule for c in first.counterexamples] == [
        c.schedule for c in second.counterexamples
    ]


def test_backward_search_reaches_past_forward_depth():
    """The guided search's *candidates* routinely sit beyond the
    forward depth bound even when they are rejected."""
    result = backward_search(
        get_scenario("migration-race"),
        [get_predicate("member-stranded")],
        max_deviations=2,
        budget=30,
        seed=0,
    )
    assert result.stats.max_depth_reached > NIGHTLY_FORWARD_DEPTH


# -- the ISSUE-8 acceptance demonstration -----------------------------------


class TestAcceptanceDemo:
    """Re-introduce bug 11 and confirm it by replay, deep past the
    forward frontier, within a fraction of the nightly budget."""

    def test_confirms_reintroduced_bug_beyond_forward_depth(self):
        scenario = get_scenario("migration-race")
        with _disable_bug11_fix():
            result = backward_search(
                scenario,
                [get_predicate("member-stranded")],
                max_deviations=3,
                budget=250,
                seed=0,
                stop_on_first=True,
            )
        assert not result.ok
        counterexample = result.counterexamples[0]
        # Strictly deeper than any schedule the forward default (or
        # even the nightly forward tier) can deviate at.
        assert len(counterexample.schedule) > FORWARD_DEPTH_DEFAULT
        assert len(counterexample.schedule) > NIGHTLY_FORWARD_DEPTH
        # Confirm-by-replay provenance: the stored outcome violated
        # on the targeted predicate.
        predicate = get_predicate("member-stranded")
        assert counterexample.outcome.violation is not None
        assert predicate.matches(counterexample.outcome.violation.findings)
        assert counterexample.source == "backward"
        assert counterexample.predicate == "member-stranded"
        assert counterexample.seed == 0
        # Cheap: the guided search needed only a handful of replays.
        assert result.stats.runs < 250

    def test_confirmed_schedule_replays_clean_after_fix(self):
        """The same schedule on the *fixed* protocol converges — the
        counterexample is the bug's, not the scenario's."""
        scenario = get_scenario("migration-race")
        with _disable_bug11_fix():
            result = backward_search(
                scenario,
                [get_predicate("member-stranded")],
                max_deviations=3,
                budget=250,
                seed=0,
                stop_on_first=True,
            )
        schedule = result.counterexamples[0].schedule
        options = scenario_options(
            scenario, max_decisions=0, drop_budget=3
        )
        outcome = run_schedule(
            scenario, schedule, options, limit=max(len(schedule), 1)
        )
        assert outcome.violation is None

    def test_fix_fires_on_the_pinned_drop_chain(self):
        """The stale-cached-join NACK is what keeps the pinned
        schedule clean — it actually executes during the replay."""
        scenario = get_scenario("migration-race")
        options = scenario_options(
            scenario, max_decisions=0, drop_budget=3
        )
        schedule = (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1)
        nacked = []
        original = CBTProtocol._nack_stale_cached

        def spying(self, pend):
            before = len(pend.cached)
            original(self, pend)
            if len(pend.cached) < before:
                nacked.append(pend.group)

        with mock.patch.object(CBTProtocol, "_nack_stale_cached", spying):
            outcome = run_schedule(
                scenario, schedule, options, limit=len(schedule)
            )
        assert outcome.violation is None
        assert nacked, "fix did not fire on the pinned drop chain"


# -- counterexample provenance ----------------------------------------------


def test_summary_carries_scenario_seed_and_predicate():
    with _disable_bug11_fix():
        result = backward_search(
            get_scenario("migration-race"),
            [get_predicate("member-stranded")],
            max_deviations=3,
            budget=250,
            seed=0,
            stop_on_first=True,
        )
    summary = result.counterexamples[0].summary()
    assert "scenario=migration-race" in summary
    assert "source=backward" in summary
    assert "seed=0" in summary
    assert "predicate=member-stranded" in summary


def test_violation_describe_names_the_scenario():
    with _disable_bug11_fix():
        result = backward_search(
            get_scenario("migration-race"),
            [get_predicate("member-stranded")],
            max_deviations=3,
            budget=250,
            seed=0,
            stop_on_first=True,
        )
    violation = result.counterexamples[0].outcome.violation
    assert "[migration-race]" in violation.describe()


# -- CLI --------------------------------------------------------------------


def test_cli_backward_clean(tmp_path):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(
            [
                "explore",
                "--backward",
                "--scenario",
                "joins-race",
                "--budget",
                "25",
                "--export-dir",
                str(tmp_path),
            ]
        )
    assert code == 0
    assert "candidates=25" in out.getvalue()


def test_cli_backward_rejects_unknown_predicate(tmp_path, capsys):
    code = main(
        [
            "explore",
            "--backward",
            "--scenario",
            "joins-race",
            "--predicate",
            "no-such-goal",
            "--export-dir",
            str(tmp_path),
        ]
    )
    assert code == 2


def test_cli_backward_exports_confirmed_counterexample(tmp_path):
    out = io.StringIO()
    with _disable_bug11_fix(), redirect_stdout(out):
        code = main(
            [
                "explore",
                "--backward",
                "--scenario",
                "migration-race",
                "--predicate",
                "member-stranded",
                "--budget",
                "250",
                "--export-dir",
                str(tmp_path),
            ]
        )
    assert code == 1
    text = out.getvalue()
    assert "VIOLATION" in text
    exported = sorted(p.name for p in tmp_path.iterdir())
    assert "migration_race_member_stranded.schedule.json" in exported
    narrative = (
        tmp_path / "migration_race_member_stranded.narrative.txt"
    ).read_text()
    assert "scenario: migration-race" in narrative
    assert "source: backward" in narrative
    assert "predicate: member-stranded" in narrative


def test_cli_explore_has_no_shards_flag(capsys):
    """The sharded forward search is gone with its two flags: argparse
    rejects them (exit 2) rather than ignoring them."""
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--shards", "2", "--workers", "0", "--scenario", "joins-race"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --shards 2 --workers 0" in capsys.readouterr().err
