"""Tests for report assembly and trace export."""

import json
import os
import pathlib
import subprocess
import sys

from benchmarks.conftest import results_drift
from repro.harness.report import (
    build_report,
    collect_results,
    export_trace,
    load_trace_summary,
    write_report,
)
from repro.harness.scenarios import send_data

REPO = pathlib.Path(__file__).resolve().parents[1]
COMMITTED = REPO / "benchmarks" / "results"


class TestReportAssembly:
    def test_collect_reads_artifacts(self, tmp_path):
        (tmp_path / "E1_demo.txt").write_text("table one\n")
        (tmp_path / "E2_demo.txt").write_text("table two\n")
        (tmp_path / "ignore.json").write_text("{}")
        results = collect_results(str(tmp_path))
        assert set(results) == {"E1_demo", "E2_demo"}
        assert results["E1_demo"] == "table one"

    def test_missing_dir_is_empty(self, tmp_path):
        assert collect_results(str(tmp_path / "nope")) == {}

    def test_build_report_includes_every_experiment(self, tmp_path):
        (tmp_path / "E1.txt").write_text("alpha\n")
        (tmp_path / "E2.txt").write_text("beta\n")
        report = build_report(str(tmp_path))
        assert "## E1" in report and "alpha" in report
        assert "## E2" in report and "beta" in report
        assert "2 experiments" in report

    def test_empty_report_message(self, tmp_path):
        report = build_report(str(tmp_path))
        assert "No results found" in report

    def test_write_report(self, tmp_path):
        (tmp_path / "E1.txt").write_text("x\n")
        out = tmp_path / "report.md"
        text = write_report(str(tmp_path), str(out))
        assert out.read_text().rstrip("\n") == text

    def test_real_results_dir_builds(self):
        """If benches already ran, their artefacts must assemble cleanly."""
        results_dir = os.path.join("benchmarks", "results")
        report = build_report(results_dir)
        assert report.startswith("# ")


class TestTraceExport:
    def test_roundtrip(self, tmp_path, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        send_data(figure1_network, "G", group, count=1)
        out = tmp_path / "trace.jsonl"
        written = export_trace(figure1_network.trace, str(out))
        assert written == len(figure1_network.trace)
        counts = load_trace_summary(str(out))
        assert counts.get("tx", 0) > 0
        assert counts.get("rx", 0) > 0

    def test_limit(self, tmp_path, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        out = tmp_path / "trace.jsonl"
        written = export_trace(figure1_network.trace, str(out), limit=5)
        assert written == 5
        with open(out) as f:
            lines = f.readlines()
        assert len(lines) == 5
        record = json.loads(lines[0])
        assert {"time", "kind", "link", "node", "proto"} <= set(record)


class TestCommittedTables:
    """A benchmark run redirected by ``REPRO_RESULTS_DIR`` is a check
    (``benchmarks/conftest.py``): a table that differs from its committed
    copy fails the run, and so does a RESULTS.md the committed tables do
    not rebuild."""

    def _publish(self, tmp_path, text):
        """A pytest run, under the benchmarks' session hook, whose one
        test publishes ``text`` as the E9 table."""
        (tmp_path / "test_publish.py").write_text(
            "from benchmarks.conftest import publish\n\n\n"
            f"def test_publish():\n    publish('E9_codec', {text!r})\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]),
            REPRO_RESULTS_DIR=str(tmp_path / "out"),
        )
        return subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-p", "benchmarks.conftest", "test_publish.py",
            ],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )

    def test_the_committed_table_passes(self, tmp_path):
        table = (COMMITTED / "E9_codec.txt").read_text()
        proc = self._publish(tmp_path, table[:-1])
        assert proc.returncode == 0, proc.stdout

    def test_a_tampered_table_fails_the_run(self, tmp_path):
        table = (COMMITTED / "E9_codec.txt").read_text()
        proc = self._publish(tmp_path, table[:-1].replace("0", "1", 1))
        assert proc.returncode == 1
        assert "RESULTS DRIFT E9_codec.txt: line " in proc.stdout

    def test_results_md_must_rebuild_from_the_committed_tables(self, tmp_path):
        assert results_drift(str(COMMITTED), ["E9_codec"]) == []
        stale = tmp_path / "RESULTS.md"
        stale.write_text((REPO / "RESULTS.md").read_text().replace("E9", "E0", 1))
        assert results_drift(str(COMMITTED), [], results_md=str(stale)) == [
            "RESULTS.md: differs from `python -m repro report` over the "
            "committed tables"
        ]
