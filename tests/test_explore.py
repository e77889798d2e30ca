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
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.audit import convergence_findings
from repro.explore import engine
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
from repro.explore.scenarios import (
    SCENARIOS,
    get_scenario,
    scenario_options,
)
from repro.explore.shrink import shrink
from repro.harness.campaign import LEGS


def _retransmit_oracle(domain):
    """Flags any join retransmission — only drop schedules trigger it."""
    findings = []
    for name in sorted(domain.protocols):
        sent = domain.protocols[name].stats.sent.get("JOIN_REQUEST", 0)
        if sent >= 2:
            findings.append(f"{name} sent {sent} JOIN_REQUESTs")
    return findings


def _convergence_or_retransmit(world):
    findings = convergence_findings(world.domain, world.group, world.members)
    return [str(finding) for finding in findings] + _retransmit_oracle(world.domain)


def _on_leg(monkeypatch, scenario, **oracles):
    """``scenario`` on a copy of its leg row with ``oracles`` swapped in."""
    leg = f"{scenario.leg}+{'+'.join(sorted(oracles))}"
    monkeypatch.setitem(LEGS, leg, dataclasses.replace(scenario.row, **oracles))
    return dataclasses.replace(scenario, leg=leg)


@pytest.fixture()
def seeded_scenario(monkeypatch):
    """joins-race variant whose oracle rejects retransmissions."""
    return _on_leg(
        monkeypatch, get_scenario("joins-race"), convergence=_convergence_or_retransmit
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


def test_a_search_that_ends_on_its_budget_is_exhausted():
    scenario = get_scenario("quit-race")
    # The depth-3 space is 15 runs: a budget of exactly 15 enumerates it.
    for budget, exhausted in ((14, False), (15, True), (16, True)):
        options = scenario_options(scenario, max_decisions=3, max_runs=budget)
        result = explore(scenario, options)
        assert result.exhausted is exhausted, budget
        assert result.stats.runs == min(budget, 15)
    assert result.visited_digest == "a5a65673211f3a6c"


# -- one simulation per schedule --------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_derived_pass_equals_a_run_at_the_pass_limit(name, monkeypatch):
    """Every (schedule, pass) a depth-3 search reads from its full-depth
    run reports what simulating it at the pass limit reports, against
    the same visited map."""
    scenario = get_scenario(name)
    options = scenario_options(scenario, max_decisions=3)
    derive = engine._at_limit
    checked = []

    def checked_derive(full, limit, visited):
        before = dict(visited)
        derived = derive(full, limit, visited)
        real = run_schedule(scenario, full.schedule, options, limit=limit, visited=before)
        assert derived.decisions == real.decisions  # with ``expandable``
        assert derived.fingerprints == real.fingerprints
        assert derived.observed_at == real.observed_at
        assert derived.pruned == real.pruned
        assert derived.narrative == real.narrative
        assert derived.suppressed_decisions == real.suppressed_decisions
        assert visited == before
        checked.append((full.schedule, limit))
        return derived

    monkeypatch.setattr(engine, "_at_limit", checked_derive)
    result = explore(scenario, options)
    assert result.ok and result.exhausted
    assert len(checked) == result.stats.runs


# (runs, states_visited, states_pruned, visited_digest) recorded when
# every pass re-simulated every schedule; ``simulations`` is the count
# of distinct schedules.
SEARCH_PINS = [
    ("flap-join", 3, (28, 6, 0, "d9a0e73fe624a134"), 16),
    ("hpimdm-elections", 3, (30, 7, 0, "5b34bd5767f7fd50"), 22),
    ("joins-race", 3, (53, 11, 1, "fa8d6ba39d5d39ad"), 37),
    ("lan-proxy", 3, (59, 13, 3, "31e2a4d33ff5b5db"), 41),
    ("migration-race", 3, (17, 6, 0, "d0cbc1a0ba0999d6"), 10),
    ("quit-race", 3, (15, 4, 1, "a5a65673211f3a6c"), 9),
    ("flap-join", 4, (52, 6, 0, "d9a0e73fe624a134"), 24),
    ("hpimdm-elections", 4, (98, 22, 6, "7af8c0ad4a16370e"), 68),
    ("joins-race", 4, (145, 26, 12, "8d62cd7782059299"), 92),
    ("lan-proxy", 4, (160, 31, 20, "cabf7666a8712bab"), 101),
    ("migration-race", 4, (37, 12, 4, "34a4641369b882a1"), 20),
    ("quit-race", 4, (35, 11, 3, "6c81ad1c5649233a"), 20),
    ("joins-race", 5, (322, 59, 55, "1272a471de1aae8d"), 177),
    ("migration-race", 5, (72, 25, 9, "1049850f4fd2de5c"), 35),
    ("hpimdm-elections", 5, (272, 57, 38, "416c0eaf3e3f548a"), 174),
]


@pytest.mark.parametrize(
    "name, depth, pinned, simulations",
    SEARCH_PINS,
    ids=[f"{name}-d{depth}" for name, depth, _, _ in SEARCH_PINS],
)
def test_search_pins_hold_with_one_simulation_per_schedule(
    name, depth, pinned, simulations, monkeypatch
):
    scenario = get_scenario(name)
    calls = []

    def counted(scenario, schedule, *args, **kwargs):
        calls.append(tuple(schedule))
        return run_schedule(scenario, schedule, *args, **kwargs)

    monkeypatch.setattr(engine, "run_schedule", counted)
    result = explore(scenario, scenario_options(scenario, max_decisions=depth))
    stats = result.stats
    assert result.ok and result.exhausted
    assert (
        stats.runs, stats.states_visited, stats.states_pruned, result.visited_digest
    ) == pinned
    assert len(calls) == len(set(calls)) == stats.simulations == simulations


@pytest.mark.parametrize(
    "fault, expected",
    [(1, [(0.3, "link L_R4_R7 down"), (1.1, "link L_R4_R7 up")]), (0, [])],
)
def test_a_placed_fault_fires_onto_the_bus(fault, expected, monkeypatch):
    """The explorer places its chosen fault through the one applier, so
    each action publishes a ``fault`` record, timed from the window
    start; choosing no fault publishes none."""
    flap = get_scenario("flap-join")
    fired = []

    def convergence(world):
        fired.extend(world.network.telemetry.bus.records("fault"))
        return flap.row.convergence(world)

    scenario = _on_leg(monkeypatch, flap, convergence=convergence)
    outcome = run_schedule(scenario, (fault,), scenario_options(scenario))
    assert outcome.violation is None
    first = outcome.decisions[0]
    assert first.kind == "fault" and first.chosen == fault
    assert [
        (round(record.time - first.time, 6), record.description) for record in fired
    ] == expected


def test_a_spec_on_another_topology_row_explores():
    """One world builder: a joins-race-shaped spec on the grid9 row
    stands up with that row's network and cores (N4, N0) through the
    cell stand-up and searches like the Figure-1 one."""
    hosts = ("H_N3", "H_N5", "H_N7")
    scenario = dataclasses.replace(
        get_scenario("joins-race"),
        name="joins-race-grid9",
        topology="grid9",
        members=hosts,
        actions=tuple((0.0, "join", host) for host in hosts),
    )
    result = explore(scenario, scenario_options(scenario, max_decisions=2))
    stats = result.stats
    assert result.ok and result.exhausted
    assert (
        stats.runs, stats.states_visited, stats.states_pruned, result.visited_digest
    ) == (16, 4, 0, "7b8560a1aa9799e6")
    first = run_schedule(scenario, (), scenario_options(scenario, max_decisions=1))
    assert first.narrative[0].startswith("#0 t=3.001 order: deliver CoreReport LAN_N3->N3")


def test_an_hpimdm_spec_on_another_topology_row_explores():
    """The HPIM-DM leg probes from the spec's own ``send`` host, so an
    hpimdm-elections-shaped spec on the grid9 row (which has no host
    B) searches clean, and the Figure-1 spec still sends from B."""
    world = get_scenario("hpimdm-elections").build()
    world.close()
    assert world.sender == "B"
    scenario = dataclasses.replace(
        get_scenario("hpimdm-elections"),
        name="hpimdm-elections-grid9",
        topology="grid9",
        pre_members=("H_N0",),
        members=("H_N0", "H_N4", "H_N8"),
        actions=((0.0, "join", "H_N4"), (0.0, "join", "H_N8"), (0.2, "send", "H_N2")),
    )
    result = explore(scenario, scenario_options(scenario, max_decisions=2))
    stats = result.stats
    assert result.ok and result.exhausted
    assert (
        stats.runs, stats.states_visited, stats.states_pruned, result.visited_digest
    ) == (7, 2, 0, "38f8af456a038509")


#: ``(runs, states_visited, states_pruned, visited_digest)`` of the
#: depth-2 search of a joins-race-shaped spec with a sender, per row.
ROW_PINS = {
    "cbt": (16, 4, 0, "8996a538512020ff"),
    "dvmrp": (6, 4, 0, "fb984d73cd9a332b"),
    "hpimdm": (8, 2, 0, "e741df21196a0710"),
}


@pytest.mark.parametrize("leg", sorted(ROW_PINS))
def test_a_spec_searches_on_every_protocol_row(leg):
    """One protocol table: every ``LEGS`` row carries the explorer's
    oracles, so one spec — A, G and H join at 0 s, B sends at 0.2 s,
    each row's handshakes gated — searches clean on each of them."""
    assert set(ROW_PINS) == set(LEGS)
    race = get_scenario("joins-race")
    scenario = dataclasses.replace(
        race,
        name=f"joins-race-send-{leg}",
        leg=leg,
        actions=race.actions + ((0.2, "send", "B"),),
        gate_types=race.gate_types + ("Prune", "Graft", "HpimAssert", "HpimInterest", "HpimAck"),
    )
    result = explore(scenario, scenario_options(scenario, max_decisions=2))
    stats = result.stats
    assert result.ok and result.exhausted
    assert (
        stats.runs, stats.states_visited, stats.states_pruned, result.visited_digest
    ) == ROW_PINS[leg]


def test_a_dense_spec_that_sends_nothing_probes_from_its_first_member():
    """With no ``send`` in the window, the dense rows' convergence
    oracle probes from the spec's first member (A), the host a cell
    probes from, instead of looking up a host named None."""
    elections = get_scenario("hpimdm-elections")
    scenario = dataclasses.replace(
        elections,
        name="hpimdm-elections-silent",
        actions=tuple(action for action in elections.actions if action[1] != "send"),
    )
    world = scenario.build()
    world.close()
    assert world.sender is None
    result = explore(scenario, scenario_options(scenario, max_decisions=1))
    stats = result.stats
    assert result.ok and result.exhausted
    assert (
        stats.runs, stats.states_visited, stats.states_pruned, result.visited_digest
    ) == (1, 1, 0, "b6dc08f13fe56b1c")


def _quit_overlap(domain, check_loops):
    """Flags two routers quitting at once — transient in the default
    run (R9 quits as it acks R10), so it shows only where the oracle
    looks between those two events."""
    quitting = sorted(n for n, p in domain.protocols.items() if p.quits)
    return [f"{', '.join(quitting)} quitting at once"] if len(quitting) >= 2 else []


def test_a_transition_violation_is_what_its_pass_reports(monkeypatch):
    """The full-depth run sees the oracle fire at a position shallower
    passes do not look at; the search still reports the counterexample
    its own pass finds, recorded when every pass re-simulated."""
    scenario = _on_leg(monkeypatch, get_scenario("quit-race"), transition=_quit_overlap)
    options = scenario_options(scenario, max_decisions=4)
    full = run_schedule(scenario, (), options)
    assert full.violation is not None and len(full.decisions) >= 2
    result = explore(scenario, options)
    assert result.stats.runs == 11 and not result.exhausted
    counterexample = result.counterexample
    assert counterexample.schedule == (0, 1)
    violation = counterexample.outcome.violation
    assert (violation.stage, violation.time) == ("transition", pytest.approx(9.18))
    assert violation.findings == ["R10, R8, R9 quitting at once"]
    assert counterexample.outcome.narrative == [
        "#0 t=9.151 drop: deliver QUIT_REQUEST on L_R9_R10 [1/2]",
        "#1 t=9.161 drop: drop QUIT_ACK on L_R9_R10 [2/2]",
        "transition violation [quit-race] at t=9.180:\n"
        "  R10, R8, R9 quitting at once",
    ]


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


def _document(**changes):
    """A valid schedule document as JSON text, with ``changes`` applied
    (``options_<field>`` sets one options field)."""
    scenario = get_scenario("joins-race")
    payload = schedule_payload(
        "joins-race", scenario_options(scenario, max_decisions=2), (0, 1)
    )
    for key, value in changes.items():
        if key.startswith("options_"):
            payload["options"][key[len("options_"):]] = value
        else:
            payload[key] = value
    return dump_schedule(payload)


#: Documents a replay cannot run — each once raised KeyError /
#: TypeError / UnicodeDecodeError from deep inside the replay, or
#: loaded as something it is not (a pin that never fails, bools as
#: choice indices).
UNRUNNABLE_DOCUMENTS = {
    "unknown-scenario": _document(scenario="no-such-scenario").encode(),
    "options-not-an-object": _document(options=3).encode(),
    "options-field-mistyped": _document(options_max_decisions="x").encode(),
    "not-utf8": b'{"format": "\xff\xfe"}',
    "expect-unknown": _document(expect="maybe").encode(),
    "schedule-of-bools": _document(schedule=[True, False]).encode(),
    # The sharded forward search that wrote this source is gone.
    "source-frontier": _document(source="frontier").encode(),
}


@pytest.mark.parametrize("name", sorted(UNRUNNABLE_DOCUMENTS))
def test_unrunnable_documents_fail_typed(name, tmp_path, capsys):
    with pytest.raises(ScheduleFormatError):
        load_schedule(UNRUNNABLE_DOCUMENTS[name])
    path = tmp_path / "doc.schedule.json"
    path.write_bytes(UNRUNNABLE_DOCUMENTS[name])
    with pytest.raises(ScheduleFormatError):
        replay_file(str(path))
    assert main(["explore", "--replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_no_document_is_written_with_the_retired_frontier_source():
    scenario = get_scenario("joins-race")
    options = scenario_options(scenario, max_decisions=2)
    with pytest.raises(ValueError, match="source"):
        schedule_payload("joins-race", options, (0, 1), source="frontier")


def test_the_valid_base_document_loads():
    assert load_schedule(_document().encode())["scenario"] == "joins-race"


def _assert_replayable(payload):
    """What a replay reads from a loaded document is all there and of
    the type the engine runs on."""
    get_scenario(payload["scenario"])
    options = ExploreOptions.from_dict(payload["options"])
    for field in dataclasses.fields(ExploreOptions):
        value, default = getattr(options, field.name), field.default
        assert type(value) is type(default), field.name
        if isinstance(default, int) and not isinstance(default, bool):
            assert value >= 0, field.name
        if isinstance(default, tuple):
            assert all(isinstance(item, str) for item in value), field.name
    assert all(type(v) is int and v >= 0 for v in payload["schedule"])
    assert payload.get("expect", "clean") in ("clean", "violation")


class TestScheduleReaderFuzz:
    """The schedule reader takes anything and either returns a document
    a replay can run or raises :class:`ScheduleFormatError`."""

    JSON_VALUES = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-(2**40), 2**40)
        | st.floats()
        | st.text(max_size=12)
        | st.sampled_from(["joins-race", "clean", "violation", "forward"]),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    )

    KEYS = [
        "format", "scenario", "options", "schedule", "expect", "note",
        "source", "seed", "predicate",
    ] + [f"options_{f.name}" for f in dataclasses.fields(ExploreOptions)]

    @staticmethod
    def _read(data):
        try:
            payload = load_schedule(data)
        except ScheduleFormatError:
            return
        _assert_replayable(payload)

    @given(key=st.sampled_from(KEYS), value=JSON_VALUES)
    @settings(max_examples=800, deadline=None)
    def test_any_json_value_in_any_field(self, key, value):
        self._read(_document(**{key: value}))

    @given(value=JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_json_document(self, value):
        self._read(json.dumps(value))

    @given(data=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes(self, data):
        self._read(data)

    @given(index=st.integers(0, 400), value=st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_byte_flips(self, index, value):
        damaged = bytearray(_document().encode())
        damaged[index % len(damaged)] = value
        self._read(bytes(damaged))


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
    assert "runs=53 sims=37 " in text
    assert os.listdir(str(tmp_path)) == []  # nothing exported when clean


def test_cli_explore_has_no_deepening_switch():
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        main(["explore", "--smoke", "--no-deepening"])
    assert exit_info.value.code == 2
    assert "--no-deepening" in err.getvalue()
    assert "deepening" not in ExploreOptions.__dataclass_fields__
    # Documents written while the knob existed still load.
    assert ExploreOptions.from_dict({"deepening": True}) == ExploreOptions()


def test_cli_explore_exports_forward_counterexample(
    tmp_path, monkeypatch, seeded_scenario
):
    """The forward search's find goes through the same shrink, narrative
    and export report as the backward search's."""
    monkeypatch.setitem(SCENARIOS, "joins-race", seeded_scenario)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(
            [
                "explore",
                "--scenario",
                "joins-race",
                "--depth",
                "2",
                "--export-dir",
                str(tmp_path),
            ]
        )
    assert code == 1
    text = out.getvalue()
    assert "VIOLATION" in text and "  shrunk [" in text
    exported = sorted(os.listdir(str(tmp_path)))
    for kind in ("schedule", "narrative", "test"):
        assert f"  exported {kind}: " in text
    schedule = next(name for name in exported if name.endswith(".schedule.json"))
    with open(os.path.join(str(tmp_path), schedule)) as handle:
        payload = load_schedule(handle.read())
    assert payload["scenario"] == "joins-race"
    assert payload["source"] == "forward"
    assert payload["note"] == "repro explore --scenario joins-race --depth 2"
    assert "check_loops" not in payload["options"]


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
