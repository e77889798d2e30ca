"""Scaled-down pass over the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` from the
repo root; tier-1 (``testpaths = ["tests"]``) does not collect it.
Every workload runs at a size that takes about a second, through the
same code paths as the full-size run.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess

import pytest

from benchmarks.e2e import compare, layers, measure, run
from benchmarks.e2e.observe import Observer
from benchmarks.e2e.workloads import SMALL, WORKLOADS

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SEED = 5


def _e2e(name: str) -> dict:
    reps = measure.run_reps(SMALL[name], SEED, 2)
    return run.record(SPEC, name, SEED, False, measure.summarise(reps, 0.1))


def _layers(name: str) -> dict:
    return run.record(SPEC, name, SEED, True, layers.trace(SMALL[name], SEED))


@pytest.fixture(scope="module")
def small_set() -> dict:
    """One set at the small sizes, in the shape ``compare`` reads."""
    records = {}
    for name in SMALL:
        records[f"{name}:e2e"] = _e2e(name)
        records[f"{name}:layers"] = _layers(name)
    return records


def test_spec_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(SMALL)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    e2e, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in e2e + per_layer] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for metric in e2e + per_layer:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in e2e)
    assert all(set(m) == {"name", "unit", "better"} for m in per_layer)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_every_declared_metric_is_emitted_with_a_unit(small_set):
    for key, result in small_set.items():
        kind = "per_layer" if result["trace"] else "end_to_end"
        assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]], key
        for name, metric in result["metrics"].items():
            assert NAME.match(name) and UNIT.match(metric["unit"]), (key, name)
            assert isinstance(metric["value"], (int, float)), (key, name)
        assert result["correct"] and result["failed"] == 0, (key, result["notes"])
        assert result["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(small_set):
    for key, result in small_set.items():
        if not result["trace"]:
            zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
            assert not zero, (key, zero)


def test_layer_shares_sum_to_one(small_set):
    for key, result in small_set.items():
        if result["trace"]:
            total = sum(
                m["value"]
                for name, m in result["metrics"].items()
                if name.endswith(".self_share")
            )
            assert abs(total - 1.0) < 0.02, (key, total)
            calls = sum(
                m["value"]
                for name, m in result["metrics"].items()
                if name.endswith(".calls_per_event") and name != "calls_per_event"
            )
            # Not exact: the observer pauses the profiler while it reads
            # a registry, and a function that returns after the profiler
            # resumes has no caller edge to be charged along.
            assert calls == pytest.approx(
                result["metrics"]["calls_per_event"]["value"], rel=5e-3
            )


def test_counts_repeat_exactly_over_two_passes(small_set):
    again = {}
    for name in SMALL:
        again[f"{name}:e2e"] = _e2e(name)
        again[f"{name}:layers"] = _layers(name)
    # Timings of second-long runs wobble; only the exact verdicts count.
    lines, _ok = compare.compare(small_set, again, SPEC)
    changed = [line for line in lines if "CHANGED" in line]
    assert not changed, "\n".join(changed)
    assert sum(" equal " in line for line in lines) > 200


def test_observer_counts_what_the_cell_reports():
    observer = Observer()
    rep = SMALL["flash_crowd_n1000"].rep(SEED, observer)
    assert observer.networks == 1
    assert observer.events == rep.sim_events


def test_compare_flags_a_count_change(small_set):
    changed = copy.deepcopy(small_set)
    changed["converge_n1000:e2e"]["metrics"]["sim_events"]["value"] += 1
    lines, ok = compare.compare(small_set, changed, SPEC)
    assert not ok
    flagged = [line for line in lines if "CHANGED" in line]
    assert len(flagged) == 1 and "sim_events" in flagged[0]


def test_compare_flags_a_slowdown(small_set):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    factor = 1.0 + max(0.20, 2 * bound)
    slower = copy.deepcopy(small_set)
    # Tight reps on both sides, so the verdict is not "unresolved".
    for records in (small_set, slower):
        record = records["stream_n1000:e2e"]
        wall = record["metrics"]["wall_s"]["value"]
        record["rep_wall_s"] = [wall, wall * 1.01]
    record = slower["stream_n1000:e2e"]
    record["rep_wall_s"] = [wall * factor for wall in record["rep_wall_s"]]
    record["metrics"]["wall_s"]["value"] *= factor
    record["metrics"]["events_per_s"]["value"] /= factor
    record["metrics"]["ops_per_s"]["value"] /= factor
    lines, ok = compare.compare(small_set, slower, SPEC)
    assert not ok
    flagged = sorted(line.split()[1] for line in lines if "REGRESSED" in line)
    assert flagged == ["events_per_s", "ops_per_s", "wall_s"]


def test_compare_says_unresolved_when_reps_spread_wider_than_the_bound(small_set):
    noisy = copy.deepcopy(small_set)
    record = noisy["stream_n1000:e2e"]
    wall = record["metrics"]["wall_s"]["value"]
    record["rep_wall_s"] = [wall, wall * 2.0]
    lines, _ok = compare.compare(small_set, noisy, SPEC)
    verdicts = [line.split()[2] for line in lines if line.split()[1] == "wall_s"]
    assert "unresolved" in verdicts


def test_run_fails_without_the_program(tmp_path):
    """The contract: in a directory holding only BENCHMARK.json and the
    benchmark's own files, the command exits non-zero with no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(run.ROOT, "benchmarks", "e2e"),
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        SPEC["command"] + ["--workload", "verify_small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_result_line_is_the_contract_object(capsys, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "verify_small", SMALL["verify_small"])
    status = run.main(["--workload", "verify_small", "--seed", "3", "--seconds", "1"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_package_is_ruff_clean():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed")
    done = subprocess.run(
        [ruff, "check", os.path.join("benchmarks", "e2e")],
        cwd=run.ROOT, capture_output=True, text=True,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
