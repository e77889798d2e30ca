"""Tests for the systematic state-space explorer (repro.explore).

Covers the choice-point layer end to end: bounded search with pruning,
the two-strength oracle, counterexample shrinking, schedule
serialisation / exact replay, the pytest exporter, and the CLI verb.
A *seeded* scenario (an extra oracle that flags join retransmissions,
which only dropped-message schedules cause) stands in for a protocol
bug so the counterexample pipeline is exercised even while the real
protocol is race-free at these depths.
"""

from __future__ import annotations

import dataclasses
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import main
from repro.explore.engine import ExploreOptions, explore, run_schedule
from repro.explore.export import export_counterexample
from repro.explore.replay import (
    FORMAT,
    ScheduleFormatError,
    dump_schedule,
    load_schedule,
    replay_file,
    schedule_payload,
    verify_payload,
)
from repro.explore.scenarios import SCENARIOS, get_scenario, scenario_options
from repro.explore.shrink import shrink


def _retransmit_oracle(world):
    """Flags any join retransmission — only drop schedules trigger it."""
    findings = []
    for name in sorted(world.domain.protocols):
        sent = world.domain.protocols[name].stats.sent.get("JOIN_REQUEST", 0)
        if sent >= 2:
            findings.append(f"{name} sent {sent} JOIN_REQUESTs")
    return findings


@pytest.fixture()
def seeded_scenario():
    """joins-race variant whose oracle rejects retransmissions."""
    return dataclasses.replace(
        get_scenario("joins-race"), extra_oracle=_retransmit_oracle
    )


# -- search engine ----------------------------------------------------------


def test_smoke_exploration_exhausts_clean():
    scenario = get_scenario("joins-race")
    options = scenario_options(scenario, max_decisions=3)
    result = explore(scenario, options)
    assert result.ok
    assert result.exhausted
    assert result.stats.runs > 1
    assert result.stats.states_visited >= 1
    assert len(result.visited_digest) == 16


def test_every_registered_scenario_builds_and_runs_default_schedule():
    for name, scenario in sorted(SCENARIOS.items()):
        options = scenario_options(scenario, max_decisions=2)
        outcome = run_schedule(scenario, (), options, limit=2)
        assert outcome.violation is None, (
            f"{name} default schedule violated: "
            f"{outcome.violation.describe()}"
        )


def test_deviating_schedules_reach_new_states():
    scenario = get_scenario("joins-race")
    options = scenario_options(scenario, max_decisions=3)
    result = explore(scenario, options)
    # Reordering/dropping racing joins must expose states the default
    # path never visits; pruning must also fire (paths reconverge).
    assert result.stats.states_visited > 1
    assert result.stats.states_pruned > 0


def test_depth_bound_limits_expansion():
    scenario = get_scenario("joins-race")
    shallow = explore(scenario, scenario_options(scenario, max_decisions=1))
    deep = explore(scenario, scenario_options(scenario, max_decisions=4))
    assert shallow.exhausted and deep.exhausted
    assert shallow.stats.runs < deep.stats.runs


def test_max_runs_guard_stops_search():
    scenario = get_scenario("joins-race")
    options = scenario_options(scenario, max_decisions=4, max_runs=3)
    result = explore(scenario, options)
    assert result.stats.runs == 3
    assert not result.exhausted


def test_run_schedule_is_deterministic():
    scenario = get_scenario("quit-race")
    options = scenario_options(scenario, max_decisions=8)
    first = run_schedule(scenario, (1,), options, limit=8)
    second = run_schedule(scenario, (1,), options, limit=8)
    assert first.chosen() == second.chosen()
    assert first.fingerprints == second.fingerprints
    assert first.narrative == second.narrative


# -- counterexample pipeline ------------------------------------------------


def test_seeded_violation_found_and_replayable(seeded_scenario):
    options = scenario_options(seeded_scenario, max_decisions=4)
    result = explore(seeded_scenario, options)
    assert not result.ok
    counterexample = result.counterexample
    assert counterexample.outcome.violation is not None
    # Iterative deepening found it at the shallowest depth it exists.
    assert len(counterexample.schedule) <= 2
    # Exact replay reproduces the identical violation.
    replay = run_schedule(
        seeded_scenario, counterexample.schedule, options,
        limit=max(len(counterexample.schedule), options.max_decisions),
    )
    assert replay.violation is not None
    assert replay.violation.findings == counterexample.outcome.violation.findings


def test_shrink_drops_redundant_deviations(seeded_scenario):
    options = scenario_options(seeded_scenario, max_decisions=8)
    result = explore(
        seeded_scenario, scenario_options(seeded_scenario, max_decisions=4)
    )
    base = result.counterexample.schedule
    # Pad the violating schedule with an extra, irrelevant deviation
    # well past the violating prefix; ddmin must strip it.
    padded = tuple(base) + (0, 0, 0, 1)
    shrunk = shrink(seeded_scenario, padded, options)
    assert shrunk is not None
    assert shrunk.outcome.violation is not None
    assert shrunk.deviations_after < len(
        [value for value in padded if value != 0]
    )
    # Whatever minimum ddmin lands on must itself replay to a violation
    # with a single deviation (the seeded oracle needs only one drop).
    assert shrunk.deviations_after == 1


def test_shrink_returns_none_for_clean_schedule():
    scenario = get_scenario("joins-race")
    options = scenario_options(scenario, max_decisions=4)
    assert shrink(scenario, (), options) is None


def test_export_writes_replayable_artifacts(seeded_scenario, tmp_path, monkeypatch):
    # Register the seeded scenario so replay-by-name can find it.
    monkeypatch.setitem(SCENARIOS, "seeded-race", seeded_scenario)
    seeded = dataclasses.replace(seeded_scenario, name="seeded-race")
    monkeypatch.setitem(SCENARIOS, "seeded-race", seeded)
    options = scenario_options(seeded, max_decisions=4)
    result = explore(seeded, options)
    counterexample = result.counterexample
    assert counterexample is not None
    shrunk = shrink(seeded, counterexample.schedule, options)
    paths = export_counterexample(
        str(tmp_path), counterexample, options, shrunk=shrunk
    )
    # Schedule document replays to the same violation.
    outcome = replay_file(paths["schedule"])
    assert outcome.violation is not None
    # Narrative names the decisions and the findings.
    narrative = open(paths["narrative"]).read()
    assert "schedule:" in narrative and "violation" in narrative
    # The generated pytest file is self-contained and, with the
    # violation still present, its pinned expectation holds.
    namespace: dict = {}
    exec(compile(open(paths["test"]).read(), paths["test"], "exec"), namespace)
    test_functions = [
        fn for name, fn in namespace.items() if name.startswith("test_")
    ]
    assert len(test_functions) == 1
    test_functions[0]()  # must not raise


# -- replay format ----------------------------------------------------------


def test_payload_roundtrip():
    options = ExploreOptions(max_decisions=5, drop_budget=2)
    payload = schedule_payload("joins-race", options, (0, 2, 1), expect="clean")
    loaded = load_schedule(dump_schedule(payload))
    assert loaded == payload
    assert loaded["format"] == FORMAT
    restored = ExploreOptions.from_dict(loaded["options"])
    assert restored == options


def test_v2_payload_carries_provenance():
    options = ExploreOptions(max_decisions=3)
    payload = schedule_payload(
        "joins-race",
        options,
        (0, 1),
        source="backward",
        seed=7,
        predicate="member-stranded",
    )
    loaded = load_schedule(dump_schedule(payload))
    assert loaded["source"] == "backward"
    assert loaded["seed"] == 7
    assert loaded["predicate"] == "member-stranded"


def test_v1_documents_rejected_naming_the_supported_format():
    """There is one schedule format: a well-formed ``/1`` document fails
    typed, and the error says which format is read."""
    text = (
        '{"format": "repro-explore-schedule/1", "scenario": "joins-race", '
        '"options": {}, "schedule": [0, 1], "expect": "clean"}'
    )
    with pytest.raises(ScheduleFormatError, match=FORMAT):
        load_schedule(text)


@pytest.mark.parametrize(
    "text",
    [
        "not json at all {",
        "[1, 2, 3]",
        '{"format": "something-else/9"}',
        (
            '{"format": "repro-explore-schedule/1", "scenario": "x", '
            '"options": {}, "schedule": [1]}'
        ),
        '{"format": "repro-explore-schedule/2", "scenario": "x"}',
        (
            '{"format": "repro-explore-schedule/2", "scenario": "x", '
            '"options": {}, "schedule": [1, -2]}'
        ),
        (
            '{"format": "repro-explore-schedule/2", "scenario": "x", '
            '"options": {}, "schedule": [1], "source": "wormhole"}'
        ),
        (
            '{"format": "repro-explore-schedule/2", "scenario": "x", '
            '"options": {}, "schedule": [1], "seed": "not-an-int"}'
        ),
    ],
)
def test_malformed_schedule_documents_rejected(text):
    with pytest.raises(ScheduleFormatError):
        load_schedule(text)


def test_verify_payload_detects_expectation_mismatch():
    scenario = get_scenario("joins-race")
    options = scenario_options(scenario, max_decisions=2)
    clean = schedule_payload("joins-race", options, (), expect="violation")
    mismatch = verify_payload(clean)
    assert mismatch is not None and "clean" in mismatch


# -- CLI --------------------------------------------------------------------


def test_cli_explore_smoke_exits_zero(tmp_path):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(
            [
                "explore",
                "--smoke",
                "--depth",
                "3",
                "--export-dir",
                str(tmp_path),
            ]
        )
    assert code == 0
    text = out.getvalue()
    assert "joins-race" in text
    assert "visited=" in text and "pruned=" in text
    assert os.listdir(str(tmp_path)) == []  # nothing exported when clean


def test_cli_explore_replays_golden_schedule():
    golden = os.path.join(
        os.path.dirname(__file__),
        "schedules",
        "quit_race_drop_quit.schedule.json",
    )
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["explore", "--replay", golden])
    assert code == 0
    assert "replay clean" in out.getvalue()


def test_cli_explore_rejects_unknown_scenario():
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["explore", "--scenario", "no-such-scenario"])
    assert code == 2
    assert "unknown scenario" in err.getvalue()
