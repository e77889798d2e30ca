"""Tests for the perf-regression harness (benchmarks/perf)."""

import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from benchmarks.perf import suite  # noqa: E402
from benchmarks.perf.suite import (  # noqa: E402
    REGRESSION_FACTOR,
    check_regressions,
    load_artifact,
    run_suite,
    write_artifact,
)


def metric(value, unit="ops/s", higher_is_better=True, exact=False):
    return {
        "value": value,
        "unit": unit,
        "higher_is_better": higher_is_better,
        "exact": exact,
    }


class TestArtifacts:
    def test_write_and_load_roundtrip(self, tmp_path):
        path = write_artifact(
            "demo", {"m": metric(100.0)}, quick=False, output_dir=str(tmp_path)
        )
        assert os.path.basename(path) == "BENCH_demo.json"
        loaded = load_artifact("demo", output_dir=str(tmp_path))
        assert loaded["name"] == "demo"
        assert loaded["quick"] is False
        assert loaded["metrics"]["m"]["value"] == 100.0

    def test_quick_run_preserves_unmeasured_metrics(self, tmp_path):
        # A full run records the n200 baseline; a later quick run that
        # only measures n100 must not erase it.
        write_artifact(
            "demo",
            {"eps_n100": metric(50.0), "eps_n200": metric(30.0)},
            quick=False,
            output_dir=str(tmp_path),
        )
        write_artifact(
            "demo", {"eps_n100": metric(55.0)}, quick=True, output_dir=str(tmp_path)
        )
        loaded = load_artifact("demo", output_dir=str(tmp_path))
        assert loaded["metrics"]["eps_n100"]["value"] == 55.0
        assert loaded["metrics"]["eps_n200"]["value"] == 30.0
        assert loaded["quick"] is True

    def test_corrupt_artifact_treated_as_missing(self, tmp_path):
        (tmp_path / "BENCH_demo.json").write_text("{not json")
        assert load_artifact("demo", output_dir=str(tmp_path)) is None


class TestCheckRegressions:
    def test_no_baseline_passes(self):
        assert check_regressions(None, {"m": metric(1.0)}) == []

    def test_within_factor_passes(self):
        baseline = {"metrics": {"m": metric(100.0)}}
        # 2.5x slower is inside the 3x gate.
        assert check_regressions(baseline, {"m": metric(40.0)}) == []

    def test_higher_is_better_regression_detected(self):
        baseline = {"metrics": {"m": metric(100.0)}}
        failures = check_regressions(baseline, {"m": metric(25.0)})
        assert len(failures) == 1 and "m" in failures[0]

    def test_lower_is_better_direction(self):
        baseline = {"metrics": {"wall": metric(1.0, "s", higher_is_better=False)}}
        # Getting faster (lower) never trips the gate ...
        assert check_regressions(
            baseline, {"wall": metric(0.1, "s", higher_is_better=False)}
        ) == []
        # ... getting 4x slower (higher) does.
        failures = check_regressions(
            baseline, {"wall": metric(4.0, "s", higher_is_better=False)}
        )
        assert len(failures) == 1

    def test_only_shared_metrics_compared(self):
        baseline = {"metrics": {"old_only": metric(100.0)}}
        assert check_regressions(baseline, {"new_only": metric(1.0)}) == []

    def test_factor_is_wide(self):
        assert REGRESSION_FACTOR == pytest.approx(3.0)

    @pytest.mark.parametrize("higher_is_better", [True, False])
    @pytest.mark.parametrize(
        "old, new, changed",
        [
            (117341, 117341, False),
            (117341, 234682, True),  # doubling is inside the 3x band
            (117341, 58670, True),  # so is halving, in the "better" direction
            (117341, 117342, True),
            (0, 0, False),
            (0, 3, True),  # a zero baseline is still a baseline
            (3, 0, True),
        ],
    )
    def test_exact_metric_must_equal_baseline(
        self, old, new, changed, higher_is_better
    ):
        def count(value):
            return metric(value, "events", higher_is_better, exact=True)

        failures = check_regressions(
            {"metrics": {"sim_events": count(old)}}, {"sim_events": count(new)}
        )
        assert len(failures) == (1 if changed else 0)
        if changed:
            assert "sim_events" in failures[0] and "CHANGED" in failures[0]
            assert f"{new:d}" in failures[0] and f"{old:d}" in failures[0]

    def test_exactness_is_read_from_the_fresh_metric(self):
        # A baseline written before the flag existed still gates a
        # count the suite now declares exact.
        baseline = {"metrics": {"n": {"value": 10, "unit": "events"}}}
        assert check_regressions(baseline, {"n": metric(20, "events", exact=True)})

    def test_suite_marks_every_deterministic_count_exact(self):
        for name in ("chaos", "explore", "hpimdm"):
            for key, value in suite.BENCHMARKS[name](True).items():
                deterministic = not any(
                    word in key for word in ("per_sec", "seconds")
                )
                assert value["exact"] == deterministic, key
                assert value["gated"] == deterministic, key


@pytest.fixture
def fake_bench(monkeypatch):
    calls = []

    def bench(quick):
        calls.append(quick)
        return {"fake_ops_per_sec": metric(1000.0)}

    monkeypatch.setitem(suite.BENCHMARKS, "fake", bench)
    return calls


class TestRunSuite:
    def test_runs_and_writes_artifact(self, tmp_path, fake_bench):
        out = io.StringIO()
        code = run_suite(
            quick=True, only=["fake"], output_dir=str(tmp_path), out=out
        )
        assert code == 0
        assert fake_bench == [True]
        payload = json.loads((tmp_path / "BENCH_fake.json").read_text())
        assert payload["metrics"]["fake_ops_per_sec"]["value"] == 1000.0
        assert "OK" in out.getvalue()

    def test_regression_fails_loudly(self, tmp_path, fake_bench):
        write_artifact(
            "fake", {"fake_ops_per_sec": metric(1e9)}, quick=False,
            output_dir=str(tmp_path),
        )
        out = io.StringIO()
        code = run_suite(
            quick=True, only=["fake"], output_dir=str(tmp_path), out=out
        )
        assert code == 1
        assert "REGRESSION" in out.getvalue()

    def test_no_check_ignores_baseline(self, tmp_path, fake_bench):
        write_artifact(
            "fake", {"fake_ops_per_sec": metric(1e9)}, quick=False,
            output_dir=str(tmp_path),
        )
        code = run_suite(
            quick=True, only=["fake"], check=False,
            output_dir=str(tmp_path), out=io.StringIO(),
        )
        assert code == 0

    def test_unknown_benchmark_rejected(self, tmp_path):
        out = io.StringIO()
        code = run_suite(only=["nope"], output_dir=str(tmp_path), out=out)
        assert code == 2
        assert "unknown" in out.getvalue()


class TestRebaseline:
    """``--rebaseline --only NAME`` rewrites the committed baseline of
    each named benchmark (here a scratch directory standing in for
    ``benchmarks/baselines``) and says what it changed."""

    @pytest.fixture
    def baselines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(suite, "BASELINE_DIR", str(tmp_path))
        write_artifact(
            "fake",
            {"fake_ops_per_sec": metric(5.0), "other_mode_size": metric(7.0)},
            quick=False,
            output_dir=str(tmp_path),
        )
        return tmp_path

    def stored(self, baselines):
        payload = json.loads((baselines / "BENCH_fake.json").read_text())
        return {key: m["value"] for key, m in payload["metrics"].items()}

    def test_rewrites_named_baseline_and_prints_old_to_new(
        self, baselines, fake_bench
    ):
        out = io.StringIO()
        code = run_suite(quick=True, only=["fake"], rebaseline=True, out=out)
        assert code == 0 and fake_bench == [True]
        # What this run did not measure (the other mode's sizes) is kept.
        assert self.stored(baselines) == {
            "fake_ops_per_sec": 1000.0, "other_mode_size": 7.0
        }
        assert "REBASELINED fake_ops_per_sec: 5.0 -> 1000.0" in out.getvalue()
        assert "other_mode_size" not in out.getvalue()

    def test_a_value_that_did_not_move_is_not_reported(self, baselines, fake_bench):
        run_suite(only=["fake"], rebaseline=True, out=io.StringIO())
        out = io.StringIO()
        assert run_suite(only=["fake"], rebaseline=True, out=out) == 0
        assert "REBASELINED" not in out.getvalue()

    def test_never_fails_on_the_difference_it_is_asked_to_store(
        self, baselines, fake_bench
    ):
        write_artifact(
            "fake", {"fake_ops_per_sec": metric(1e9)}, quick=False,
            output_dir=str(baselines),
        )
        assert run_suite(only=["fake"], rebaseline=True, out=io.StringIO()) == 0
        assert self.stored(baselines)["fake_ops_per_sec"] == 1000.0

    def test_refuses_without_only(self, baselines, fake_bench):
        out = io.StringIO()
        assert run_suite(rebaseline=True, out=out) == 2
        assert "--only" in out.getvalue()
        assert fake_bench == []
        assert self.stored(baselines)["fake_ops_per_sec"] == 5.0

    def test_command_line_flag(self, baselines, fake_bench):
        from benchmarks.perf.__main__ import main

        assert main(["--rebaseline"]) == 2
        assert self.stored(baselines)["fake_ops_per_sec"] == 5.0
        assert main(["--rebaseline", "--only", "fake", "--quick"]) == 0
        assert self.stored(baselines)["fake_ops_per_sec"] == 1000.0


class TestE2EKernels:
    """``benchmarks/e2e/kernels.py`` is frozen source that nothing in
    tier 1 runs; a kernel whose world emptied itself would go on
    reporting a (very good) number."""

    def test_spf_kernel_recomputes_over_a_whole_topology(self, monkeypatch):
        """It keeps ``waxman_network(120).routing`` and drops the
        network: the topology has to outlive the ``Network`` object."""
        from benchmarks.e2e import kernels
        from repro.routing.linkstate import LinkStateRouting

        seen = []
        recompute = LinkStateRouting.recompute

        def spy(routing):
            recompute(routing)
            seen.append((len(routing.routers), len(routing.links)))

        def once(batch, seconds=0.0):
            batch()
            return 1.0

        monkeypatch.setattr(LinkStateRouting, "recompute", spy)
        monkeypatch.setattr(kernels, "_best", once)
        kernels.spf_recompute()
        (routers, links), = set(seen)
        assert routers == 120 and links > routers
