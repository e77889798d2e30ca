"""Tests for the parallel sharded CI orchestration (ISSUE-5 tentpole).

Covers the satellite checklist: worker-crash containment, timeout kill
with single-retry accounting, ``--shard i/n`` partition completeness
and disjointness, and the workers-1-vs-8 merged-fingerprint
determinism audit across the chaos and explore tiers.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.harness import parallel
from repro.harness.parallel import (
    UNIT_KINDS,
    UnitResult,
    WorkUnit,
    merge_metrics,
    merged_fingerprint,
    run_units,
    shard_units,
)
from repro.harness.tiers import (
    PYTEST_GROUPS,
    REPORT_SCHEMA,
    TIERS,
    build_report,
    build_tier,
    check_report_path,
    evaluate_gates,
    load_report,
    pytest_groups,
    replay_unit,
    run_ci,
    write_report,
)


def selftest(unit_id, retries=1, timeout=30.0, **params):
    return WorkUnit.make(
        "selftest", unit_id, dict(params, token=unit_id), timeout=timeout,
        retries=retries,
    )


class TestWorkUnit:
    def test_roundtrip(self):
        unit = WorkUnit.make(
            "chaos", "chaos/figure1/partition/0",
            {"scenario": "partition", "topology": "figure1", "seed": 42},
        )
        again = WorkUnit.from_dict(unit.to_dict())
        assert again == unit

    def test_default_timeouts_by_kind(self):
        assert WorkUnit.make("chaos", "c", {}).timeout == 120.0
        assert WorkUnit.make("selftest", "s", {}).timeout == 60.0

    def test_unknown_kind_rejected_at_make(self):
        with pytest.raises(ValueError, match="unknown unit kind 'chaoss'"):
            WorkUnit.make("chaoss", "c", {})

    def test_every_tier_kind_has_a_row(self):
        for tier in TIERS:
            for unit in build_tier(tier):
                assert unit.kind in UNIT_KINDS, (tier, unit.unit_id)

    def test_duplicate_unit_ids_rejected(self):
        units = [selftest("dup"), selftest("dup")]
        with pytest.raises(ValueError, match="duplicate"):
            run_units(units, workers=0)


class TestSharding:
    def test_partition_complete_and_disjoint(self):
        units = build_tier("full")
        for count in (1, 2, 3, 5, 8):
            shards = [shard_units(units, i, count) for i in range(count)]
            ids = [u.unit_id for shard in shards for u in shard]
            assert sorted(ids) == sorted(u.unit_id for u in units)
            assert len(ids) == len(set(ids))

    def test_partition_independent_of_input_order(self):
        units = build_tier("chaos")
        forward = shard_units(units, 1, 3)
        backward = shard_units(list(reversed(units)), 1, 3)
        assert forward == backward

    def test_bad_shard_args_rejected(self):
        units = [selftest("a")]
        with pytest.raises(ValueError):
            shard_units(units, 0, 0)
        with pytest.raises(ValueError):
            shard_units(units, 3, 3)


class TestCrashContainment:
    def test_crash_marks_only_that_shard(self):
        units = [
            selftest("u0"),
            selftest("u1-crash", action="crash", retries=0),
            selftest("u2"),
            selftest("u3"),
        ]
        results = run_units(units, workers=2)
        by_id = {r.unit_id: r for r in results}
        assert by_id["u1-crash"].status == "crashed"
        for unit_id in ("u0", "u2", "u3"):
            assert by_id[unit_id].status == "ok"

    def test_crash_retried_once_then_reported(self):
        results = run_units(
            [selftest("boom", action="crash", retries=1)], workers=1
        )
        (result,) = results
        assert result.status == "crashed"
        assert result.attempts == 2  # first try + single retry

    def test_crash_once_recovers_on_retry(self):
        results = run_units(
            [selftest("flaky", action="crash_once", retries=1)], workers=1
        )
        (result,) = results
        assert result.status == "ok"
        assert result.attempts == 2

    def test_exception_contained_as_error_not_retried(self):
        results = run_units(
            [selftest("raise", action="error", retries=1)], workers=1
        )
        (result,) = results
        assert result.status == "error"
        assert result.attempts == 1  # deterministic failures never retry
        assert any("selftest asked to raise" in line for line in result.detail)


class _ExitedWorker:
    """A worker process that is already gone when the loop looks."""

    exitcode = 0

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass

    def terminate(self):
        pass


class _Pipe:
    """A parent-side pipe end whose ``poll`` answers from a script;
    ``payload`` is what ``recv`` hands over once a poll said yes."""

    def __init__(self, polls, payload):
        self.polls = list(polls)
        self.payload = payload

    def poll(self, timeout=0):
        return self.polls.pop(0)

    def recv(self):
        return self.payload

    def close(self):
        pass


class TestReportThenExitRace:
    """``run_units`` reads the pipe, then asks whether the process is
    alive.  A worker that sends its result and exits between the two
    was reported ``crashed`` with the result sitting in the pipe —
    seen as ``test_crash_once_recovers_on_retry`` failing once in four
    full-suite runs.  Driven here with scripted handles, so the
    interleaving is the test's, not the scheduler's."""

    def _run(self, monkeypatch, polls, payload):
        handles = []

        def start_worker(ctx, unit, index, attempt):
            handle = parallel._Running(
                process=_ExitedWorker(),
                conn=_Pipe(polls, payload),
                index=index,
                started=0.0,
            )
            handles.append(handle)
            return handle

        monkeypatch.setattr(parallel, "_start_worker", start_worker)
        (result,) = run_units([selftest("raced", retries=0)], workers=1)
        return result, handles

    def test_result_sent_just_before_exit_is_not_a_crash(self, monkeypatch):
        payload = {"status": "ok", "fingerprint": "f", "detail": [], "metrics": {}}
        result, handles = self._run(monkeypatch, [False, True], payload)
        assert result.status == "ok"
        assert result.attempts == 1
        assert result.fingerprint == "f"
        assert len(handles) == 1 and handles[0].conn.polls == []

    def test_exit_without_a_result_is_still_a_crash(self, monkeypatch):
        result, handles = self._run(monkeypatch, [False, False], None)
        assert result.status == "crashed"
        assert result.attempts == 1
        assert "without reporting a result" in result.detail[0]
        assert handles[0].conn.polls == []  # the pipe was read once more


class TestTimeouts:
    def test_timeout_kill_and_single_retry_accounting(self):
        units = [
            selftest(
                "hang", action="hang", hang_seconds=60.0,
                timeout=0.4, retries=1,
            )
        ]
        results = run_units(units, workers=1)
        (result,) = results
        assert result.status == "timeout"
        assert result.attempts == 2
        assert "timeout" in result.detail[0]

    def test_hang_once_recovers_on_retry(self):
        results = run_units(
            [
                selftest(
                    "hang1", action="hang_once", hang_seconds=60.0,
                    timeout=0.4, retries=1,
                )
            ],
            workers=1,
        )
        (result,) = results
        assert result.status == "ok"
        assert result.attempts == 2


class TestDeterministicMerge:
    def test_merged_fingerprint_order_independent(self):
        a = UnitResult(unit_id="a", kind="selftest", status="ok", fingerprint="fa")
        b = UnitResult(unit_id="b", kind="selftest", status="ok", fingerprint="fb")
        assert merged_fingerprint([a, b]) == merged_fingerprint([b, a])
        assert merged_fingerprint([a, b]) != merged_fingerprint([a])

    def test_fingerprint_excludes_wall_clock_and_attempts(self):
        fast = UnitResult(
            unit_id="u", kind="selftest", status="ok",
            attempts=1, wall_seconds=0.1, fingerprint="f",
        )
        slow = UnitResult(
            unit_id="u", kind="selftest", status="ok",
            attempts=2, wall_seconds=9.9, fingerprint="f",
        )
        assert merged_fingerprint([fast]) == merged_fingerprint([slow])

    def test_metrics_merge_sums_keywise(self):
        a = UnitResult(
            unit_id="a", kind="selftest", status="ok",
            metrics={"x": 1, "y": 2.5},
        )
        b = UnitResult(
            unit_id="b", kind="selftest", status="ok", metrics={"x": 2},
        )
        assert merge_metrics([a, b]) == {"x": 3, "y": 2.5}


class TestWorkerCountDeterminism:
    """The acceptance audit: byte-identical merged fingerprints for
    ``--workers 1`` and ``--workers 8`` on the chaos and explore tiers."""

    @pytest.mark.parametrize("tier", ["chaos", "explore"])
    def test_workers_1_vs_8_identical_fingerprints(self, tier):
        units = build_tier(tier, seed=0)
        serial = run_units(units, workers=1)
        parallel = run_units(units, workers=8)
        assert all(r.ok for r in serial), [
            (r.unit_id, r.detail) for r in serial if not r.ok
        ]
        assert merged_fingerprint(serial) == merged_fingerprint(parallel)
        assert merge_metrics(serial) == merge_metrics(parallel)
        verdicts = lambda results: [  # noqa: E731
            (g.name, g.passed) for g in evaluate_gates(results)
        ]
        assert verdicts(serial) == verdicts(parallel)

    def test_shard_recombination_matches_unsharded(self):
        # Two machine shards of the chaos tier, recombined, must
        # reproduce the unsharded fingerprint exactly.
        units = build_tier("chaos", seed=0)
        whole = run_units(units, workers=2)
        parts = [
            result
            for index in range(2)
            for result in run_units(shard_units(units, index, 2), workers=2)
        ]
        assert merged_fingerprint(whole) == merged_fingerprint(parts)

    @pytest.mark.parametrize("scenario", ["joins-race", "migration-race"])
    def test_frontier_workers_1_vs_8_byte_identical(self, scenario):
        """The nightly depth-5 search of each scenario the sharded
        frontier once split runs whole, to one byte-identical
        fingerprint for any worker count."""
        from repro.harness.tiers import _explore_units

        units = [
            u for u in _explore_units(depth=5)
            if u.unit_id == f"explore/{scenario}/d5"
        ]
        serial = run_units(units, workers=1)
        parallel = run_units(units, workers=8)
        assert [r.status for r in serial] == ["ok"]
        assert merged_fingerprint(serial) == merged_fingerprint(parallel)

    def test_explore_deep_workers_1_vs_8_identical(self):
        from repro.harness.tiers import _explore_deep_units

        # The nightly joins-race units, cut to a 20-run budget.
        units = [
            WorkUnit.make(unit.kind, unit.unit_id, dict(unit.param_dict, budget=20))
            for unit in _explore_deep_units(0)
            if unit.unit_id.startswith("explore-deep/joins-race/")
        ]
        serial = run_units(units, workers=1)
        parallel = run_units(units, workers=8)
        assert merged_fingerprint(serial) == merged_fingerprint(parallel)
        assert merge_metrics(serial) == merge_metrics(parallel)

    def test_baseline_compare_workers_1_vs_8_byte_identical(self):
        """ISSUE-10 determinism audit: the CBT/DVMRP/HPIM-DM
        comparison cells replay one derive_seed-pinned fault schedule
        across all three protocol legs and merge to the byte-identical
        fingerprint whatever the worker count."""
        from repro.harness.tiers import _baseline_compare_units

        units = _baseline_compare_units(0, quick=True)
        assert {u.kind for u in units} == {"baseline-compare"}
        serial = run_units(units, workers=1)
        parallel = run_units(units, workers=8)
        assert all(r.ok for r in serial), [
            (r.unit_id, r.detail) for r in serial if not r.ok
        ]
        assert merged_fingerprint(serial) == merged_fingerprint(parallel)
        assert merge_metrics(serial) == merge_metrics(parallel)

    def test_workload_workers_1_vs_8_byte_identical(self):
        """ISSUE-9 determinism audit: the production-workload cells
        (flash crowd on bulk1000, both churn processes) merge to the
        byte-identical fingerprint whatever the worker count."""
        from repro.harness.tiers import _workload_units

        units = _workload_units(0, quick=True)
        assert {u.kind for u in units} == {"workload"}
        serial = run_units(units, workers=1)
        parallel = run_units(units, workers=8)
        assert all(r.ok for r in serial), [
            (r.unit_id, r.detail) for r in serial if not r.ok
        ]
        assert merged_fingerprint(serial) == merged_fingerprint(parallel)
        assert merge_metrics(serial) == merge_metrics(parallel)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="wall-clock speedup needs >=4 cores (single-core host)",
    )
    def test_parallel_speedup(self):
        import time

        units = build_tier("chaos", seed=0) + build_tier("explore", seed=0)
        t0 = time.perf_counter()
        run_units(units, workers=1)
        serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_units(units, workers=8)
        parallel = time.perf_counter() - t0
        assert serial / parallel >= 3.0, (serial, parallel)


class TestPinnedFingerprints:
    """Per-unit CI fingerprints of one unit of each cell kind, recorded
    before the four cell adapters became one, plus the flash-crowd and
    Pareto churn units, recorded before the workload cells moved onto
    the one cell body.  Worker-count equality alone would not notice a
    change that moved every fingerprint the same way."""

    PINNED = {
        "chaos/figure1/link_flap/0": ("smoke", "77df63bb9d63b806"),
        # Moved (9e344ac6ea3e2617 -> 893b965cb91bd2b0) through its
        # ``schedule_digest`` alone when the schedule signature came to
        # read each event's actions, not its fields, and
        # ``NodeOutage.on_restart`` went; every protocol outcome is equal.
        "baseline-compare/figure1/link_flap/0": ("smoke", "893b965cb91bd2b0"),
        "migration/figure1/0": ("chaos", "14bbe9c4cc288fb9"),
        # The three workload units moved when HELLOs left point-to-point
        # links, again when IGMP queries did, and again when a LAN with
        # no CBT peer got one HELLO per hold time: their ``sim_events``
        # fell (2401 / 143089 / 2496 -> 2101 / 82021 / 2196 -> 1876 /
        # 29677 / 1971 -> 1796 / 26677 / 1891), every other field is
        # unchanged.
        "workload/poisson/waxman16/0": ("chaos", "af9215c01f2ca6de"),
        "workload/flash-crowd/bulk1000/0": ("chaos", "d12586eff7b6cb61"),
        "workload/pareto/waxman16/0": ("chaos", "7a38af791d55ceaa"),
        # The two explore executors, recorded before the sharded
        # forward search was removed from beside them.
        "explore/joins-race/d4": ("smoke", "90e7b96acd455a64"),
        "explore-deep/joins-race/forwarding-loop": ("nightly", "78ef82a17fb2a87e"),
    }

    def test_one_unit_per_cell_kind_matches_its_pin(self):
        units = [
            unit
            for unit_id, (tier, _) in self.PINNED.items()
            for unit in build_tier(tier, seed=0)
            if unit.unit_id == unit_id
        ]
        results = run_units(units, workers=0)
        assert {
            r.unit_id: (r.status, r.fingerprint) for r in results
        } == {
            unit_id: ("ok", fingerprint)
            for unit_id, (_, fingerprint) in self.PINNED.items()
        }


class TestTiers:
    def test_tier_catalogue(self):
        for tier in TIERS:
            units = build_tier(tier)
            assert units, tier
            ids = [u.unit_id for u in units]
            assert ids == sorted(ids)
            assert len(ids) == len(set(ids))

    def test_unknown_tier_rejected(self):
        with pytest.raises(KeyError):
            build_tier("warp-speed")

    def test_pytest_groups_cover_every_test_file_once(self):
        groups = pytest_groups()
        files = [name for group in groups for name in group]
        assert len(files) == len(set(files))
        expected = sorted(
            f"tests/{name}"
            for name in os.listdir("tests")
            if name.startswith("test_") and name.endswith(".py")
        )
        assert sorted(files) == expected
        assert "tests/test_parallel_ci.py" in files

    def test_tier1_runs_every_test_group_and_the_e2e_self_test(self):
        units = build_tier("tier1")
        assert [u.unit_id for u in units] == [
            "coverage", "pytest/tier1/e2e", "pytest/tier1/experiments"
        ] + [f"pytest/tier1/g{index}" for index in range(PYTEST_GROUPS)]
        e2e = units[1]
        assert (e2e.kind, e2e.param_dict) == ("pytest", {"paths": ["benchmarks/e2e"]})
        assert e2e in build_tier("full") and e2e in build_tier("nightly")

    def test_one_forward_search_per_scenario_and_depth(self):
        # A forward search is a unit naming a scenario and a depth; a
        # tier that ran the same one twice (whole, and again split up)
        # would pay twice for the same visited states.
        for tier in TIERS:
            searches = [
                (u.param_dict["scenario"], u.param_dict["depth"])
                for u in build_tier(tier)
                if "depth" in u.param_dict
            ]
            assert len(searches) == len(set(searches)), tier

    def test_search_units_carry_exactly_what_their_executors_read(self):
        # The explore executors read their params by key, with no
        # fallback value: every unit a tier builds names each of them,
        # and nothing else.
        reads = {
            "explore": {"scenario", "depth", "drop_budget"},
            "explore-deep": {"scenario", "predicates", "budget", "max_deviations", "seed"},
        }
        seen = set()
        for tier in TIERS:
            for unit in build_tier(tier):
                if unit.kind in reads:
                    seen.add(unit.kind)
                    assert set(unit.param_dict) == reads[unit.kind], unit.unit_id
        assert seen == set(reads)

    @pytest.mark.parametrize(
        "kind, missing",
        [("explore", "drop_budget"), ("explore-deep", "budget")],
    )
    def test_a_search_unit_missing_a_param_fails_rather_than_defaults(self, kind, missing):
        unit = next(u for u in build_tier("nightly") if u.kind == kind)
        params = {k: v for k, v in unit.param_dict.items() if k != missing}
        executor = {
            "explore": parallel._execute_explore,
            "explore-deep": parallel._execute_explore_deep,
        }[kind]
        with pytest.raises(KeyError, match=missing):
            executor(params)

    def test_tier_units_pinned_before_workers_exist(self):
        # Unit identity (including derived seeds) is a pure function of
        # (tier, seed): two builds are identical, and a different base
        # seed changes cell seeds but not unit ids.
        first = build_tier("chaos", seed=0)
        second = build_tier("chaos", seed=0)
        assert first == second
        reseeded = build_tier("chaos", seed=1)
        assert [u.unit_id for u in reseeded] == [u.unit_id for u in first]
        assert reseeded != first

    def test_full_tier_contains_all_unit_kinds(self):
        kinds = {u.kind for u in build_tier("full")}
        assert kinds == {
            "lint",
            "chaos",
            "migration",
            "workload",
            "explore",
            "pytest",
            "coverage",
            "baseline-compare",
        }


class TestGatesAndReport:
    def _results(self):
        return [
            UnitResult(
                unit_id="s/ok", kind="selftest", status="ok", fingerprint="f1"
            ),
            UnitResult(
                unit_id="s/bad", kind="selftest", status="failed",
                fingerprint="f2", detail=["boom"],
            ),
        ]

    def test_units_gate_fails_on_any_failure(self):
        gates = {g.name: g for g in evaluate_gates(self._results())}
        assert not gates["units"].passed
        assert "s/bad" in gates["units"].detail

    def test_coverage_skip_passes_gate(self):
        results = [
            UnitResult(
                unit_id="coverage", kind="coverage", status="skipped",
                fingerprint="f", detail=["coverage.py is not installed"],
            )
        ]
        gates = {g.name: g for g in evaluate_gates(results)}
        assert gates["coverage-floors"].passed
        assert gates["coverage-floors"].skipped

    def test_report_schema_roundtrip(self, tmp_path):
        units = [selftest("s/ok"), selftest("s/fail", action="fail")]
        results = run_units(units, workers=0)
        report = build_report("smoke", 0, 2, (0, 1), units, results)
        assert report["schema"] == REPORT_SCHEMA
        assert report["ok"] is False
        assert report["merged"]["counts"] == {"failed": 1, "ok": 1}
        path = str(tmp_path / "report.json")
        write_report(report, path)
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(report))

    def test_load_report_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something-else/9"}')
        with pytest.raises(ValueError, match="unsupported schema"):
            load_report(str(path))


class TestReplayShard:
    def test_replay_unit_from_report(self, tmp_path):
        units = [selftest("s/fail", action="fail"), selftest("s/ok")]
        results = run_units(units, workers=0)
        report = build_report("smoke", 0, 1, (0, 1), units, results)
        path = str(tmp_path / "report.json")
        write_report(report, path)
        replayed, error = replay_unit(path, "s/fail")
        assert error is None
        assert replayed.status == "failed"
        # The replay reproduces the recorded fingerprint exactly.
        recorded = next(
            u for u in report["units"] if u["unit_id"] == "s/fail"
        )
        assert replayed.fingerprint == recorded["fingerprint"]

    def test_replay_unknown_unit(self, tmp_path):
        units = [selftest("s/ok")]
        report = build_report(
            "smoke", 0, 1, (0, 1), units, run_units(units, workers=0)
        )
        path = str(tmp_path / "report.json")
        write_report(report, path)
        result, error = replay_unit(path, "nope")
        assert result is None
        assert "not in report" in error


class TestReplayShardBadReport:
    """``repro ci --replay-shard`` on a report it cannot use: one stderr
    line naming the file (or the unit kind) and the problem, exit 2."""

    def _report(self, tmp_path):
        units = [selftest("s/ok")]
        report = build_report(
            "smoke", 0, 1, (0, 1), units, run_units(units, workers=0)
        )
        return write_report(report, str(tmp_path / "report.json"))

    def _replay(self, path, capsys, unit_id="s/ok"):
        code = main(["ci", "--replay-shard", unit_id, "--report", str(path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err.splitlines()

    def test_missing_report(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        code, err = self._replay(path, capsys)
        assert code == 2
        assert len(err) == 1 and str(path) in err[0]
        assert "No such file" in err[0]

    def test_truncated_report(self, tmp_path, capsys):
        path = self._report(tmp_path)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        code, err = self._replay(path, capsys)
        assert code == 2
        assert len(err) == 1 and path in err[0]
        assert "not a JSON document" in err[0]

    def test_not_a_ci_report(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text('{"schema": "repro-trace/1"}')
        code, err = self._replay(path, capsys)
        assert code == 2
        assert len(err) == 1 and str(path) in err[0]
        assert "unsupported schema 'repro-trace/1'" in err[0]

    def test_unknown_unit_kind(self, tmp_path, capsys):
        path = self._report(tmp_path)
        with open(path) as handle:
            report = json.load(handle)
        report["units"][0]["kind"] = "chaoss"
        write_report(report, path)
        code, err = self._replay(path, capsys)
        assert code == 2
        assert len(err) == 1 and "unknown unit kind 'chaoss'" in err[0]

    def test_report_from_before_the_sharded_search_was_removed(self, tmp_path, capsys):
        path = self._report(tmp_path)
        with open(path) as handle:
            report = json.load(handle)
        unit_id = "explore-frontier/joins-race/d5/s0of4"
        report["units"][0].update(
            unit_id=unit_id,
            kind="explore-frontier",
            params={
                "scenario": "joins-race", "depth": 5,
                "shard_index": 0, "shard_count": 4, "seed": 1,
            },
        )
        write_report(report, path)
        code, err = self._replay(path, capsys, unit_id)
        assert code == 2
        assert len(err) == 1 and "unknown unit kind 'explore-frontier'" in err[0]

    def test_report_from_before_the_bench_tier_was_removed(self, tmp_path, capsys):
        path = self._report(tmp_path)
        with open(path) as handle:
            report = json.load(handle)
        unit_id = "bench/route_lookup"
        report["units"][0].update(
            unit_id=unit_id,
            kind="bench",
            params={"name": "route_lookup", "quick": True, "output_dir": "bench-artifacts"},
        )
        write_report(report, path)
        code, err = self._replay(path, capsys, unit_id)
        assert code == 2
        assert len(err) == 1 and "unknown unit kind 'bench'" in err[0]


class TestRunCI:
    def test_run_ci_lint_tier(self, tmp_path):
        report = run_ci("lint", workers=1)
        assert report["ok"], report["gates"]
        assert [u["unit_id"] for u in report["units"]] == ["lint"]

    def test_chaos_cell_replays_from_real_report(self, tmp_path):
        units = shard_units(build_tier("chaos", seed=0), 0, 49)[:1]
        results = run_units(units, workers=1)
        report = build_report("chaos", 0, 1, (0, 49), units, results)
        path = str(tmp_path / "report.json")
        write_report(report, path)
        replayed, error = replay_unit(path, units[0].unit_id)
        assert error is None
        assert replayed.ok
        assert replayed.fingerprint == results[0].fingerprint


class TestCLI:
    def test_ci_list(self, capsys):
        assert main(["ci", "--tier", "explore", "--list"]) == 0
        out = capsys.readouterr().out
        assert "explore/joins-race/d4" in out

    def test_ci_rejects_unknown_tier(self, capsys):
        assert main(["ci", "--tier", "warp"]) == 2
        assert "unknown tier" in capsys.readouterr().err

    def test_ci_rejects_bad_shard(self, capsys):
        assert main(["ci", "--tier", "lint", "--shard", "2x3"]) == 2
        assert main(["ci", "--tier", "lint", "--shard", "3/3"]) == 2
        capsys.readouterr()
        assert main(["ci", "--tier", "lint", "--shard", "1/0"]) == 2
        assert capsys.readouterr().err == (
            "--shard 1/0: shard count must be at least 1, got 0\n"
        )

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["bench", "--quick"], "invalid choice: 'bench'"),
            (["ci", "--bench-dir", "x"], "unrecognized arguments: --bench-dir x"),
        ],
    )
    def test_the_removed_bench_surface_is_an_unknown_argument(self, argv, error, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, reason",
        [("file/report.json", "File exists"), ("directory", "Is a directory")],
    )
    def test_ci_report_path_that_cannot_be_written_fails_before_the_tier(
        self, where, reason, tmp_path, capsys, monkeypatch
    ):
        (tmp_path / "file").write_text("not a directory\n")
        (tmp_path / "directory").mkdir()
        ran = []
        monkeypatch.setattr(
            "repro.harness.tiers.run_ci", lambda *args, **kwargs: ran.append(args)
        )
        path = tmp_path / where
        assert main(["ci", "--tier", "lint", "--report", str(path)]) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert captured.err == f"--report {path}: cannot write ({reason})\n"

    def test_ci_report_path_check_leaves_an_existing_report_alone(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{}\n")
        check_report_path(str(path))
        assert path.read_text() == "{}\n"
        check_report_path(str(tmp_path / "new" / "report.json"))
        assert os.listdir(tmp_path / "new") == []

    def test_ci_smoke_shard_end_to_end(self, tmp_path, capsys):
        # One shard of the smoke tier (chaos cells only land in this
        # shard slice) through the real CLI, writing a real report.
        report_path = str(tmp_path / "report.json")
        code = main(
            [
                "ci", "--tier", "chaos", "--shard", "0/25",
                "--workers", "2", "--report", report_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "merged fingerprint:" in out
        report = load_report(report_path)
        assert report["ok"]
        assert report["shard"] == {"index": 0, "count": 25}
