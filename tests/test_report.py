"""Tests for report assembly and run export."""

import os
import pathlib
import subprocess
import sys

from benchmarks.conftest import results_drift
from repro.cli import main
from repro.harness.report import (
    build_report,
    collect_results,
    write_report,
)

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


class TestReportFailsTyped:
    """``repro report`` on a path it cannot use: one stderr line naming
    the path, exit 2, nothing on stdout."""

    def _report(self, capsys, *argv):
        code = main(["report", *argv])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err.splitlines()

    def test_table_that_is_not_utf8(self, tmp_path, capsys):
        (tmp_path / "E1.txt").write_bytes(b"\xff\xfe table\n")
        code, err = self._report(capsys, "--results-dir", str(tmp_path))
        assert code == 2
        assert err == [f"{tmp_path / 'E1.txt'}: not UTF-8 text (invalid start byte at byte 0)"]

    def test_missing_results_dir(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        code, err = self._report(capsys, "--results-dir", str(missing))
        assert code == 2
        assert err == [f"{missing}: no such results directory"]

    def test_output_in_a_missing_directory(self, tmp_path, capsys):
        (tmp_path / "E1.txt").write_text("x\n")
        target = tmp_path / "absent" / "RESULTS.md"
        code, err = self._report(
            capsys, "--results-dir", str(tmp_path), "--output", str(target)
        )
        assert code == 2
        assert err == [f"{target}: No such file or directory"]

    def test_an_empty_results_dir_is_not_an_error(self, tmp_path, capsys):
        assert main(["report", "--results-dir", str(tmp_path)]) == 0
        assert "_No results found" in capsys.readouterr().out


class TestTraceExport:
    def test_roundtrip(self, tmp_path):
        # A run exports as repro-trace/1: the bus records and every
        # packet-trace record, read back in full by load_jsonl.
        from repro.cli import _run_figure1
        from repro.telemetry.tracebus import load_jsonl

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--jsonl", str(out)]) == 0
        with open(out) as f:
            records = load_jsonl(f)
        net = _run_figure1()[0]  # the same deterministic run
        assert len(records) == len(net.telemetry.bus) + len(net.trace)
        kinds = {r.kind for r in records if r.RECORD_TYPE == "packet"}
        assert {"tx", "rx"} <= kinds


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
