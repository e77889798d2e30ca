"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_experiments_lists_index(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("E1", "E7", "E11"):
            assert exp_id in out

    def test_walkthrough(self, capsys):
        assert main(["walkthrough"]) == 0
        out = capsys.readouterr().out
        assert "R4 (primary core)" in out
        assert "delivered to 3/3 other members" in out

    def test_walkthrough_fails_on_an_audit_error(self, capsys, monkeypatch):
        from repro.core import audit

        planted = audit.Finding("error", "R4", None, "planted")
        monkeypatch.setattr(audit, "audit_domain", lambda domain: [planted])
        assert main(["walkthrough"]) == 1
        assert "[error] R4: planted" in capsys.readouterr().out

    def test_walkthrough_timeline(self, capsys):
        assert main(["walkthrough", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "joined" in out

    def test_loop(self, capsys):
        assert main(["loop"]) == 0
        out = capsys.readouterr().out
        assert "loop_detected" in out
        assert "after R2-R3 failure" in out

    def test_compare(self, capsys):
        assert main(["compare", "--size", "12", "--members", "3"]) == 0
        out = capsys.readouterr().out
        assert "routers holding state" in out
        assert "DVMRP" in out

    def test_topology_waxman(self, capsys):
        assert main(["topology", "--kind", "waxman", "--size", "10"]) == 0
        out = capsys.readouterr().out
        assert "10 routers" in out
        assert "group" in out

    def test_topology_figure1(self, capsys):
        assert main(["topology", "--kind", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "12 routers" in out

    def test_report_to_stdout(self, capsys, tmp_path):
        artefacts = tmp_path / "results"
        artefacts.mkdir()
        (artefacts / "E1.txt").write_text("demo table\n")
        assert main(["report", "--results-dir", str(artefacts)]) == 0
        out = capsys.readouterr().out
        assert "## E1" in out and "demo table" in out

    def test_report_to_file(self, capsys, tmp_path):
        artefacts = tmp_path / "results"
        artefacts.mkdir()
        (artefacts / "E1.txt").write_text("x\n")
        target = tmp_path / "report.md"
        assert main(
            ["report", "--results-dir", str(artefacts), "--output", str(target)]
        ) == 0
        assert target.exists()

    def test_stats_table(self, capsys):
        assert main(["stats", "--match", "cbt.router.R4.tx.*"]) == 0
        out = capsys.readouterr().out
        assert "telemetry snapshot" in out
        assert "cbt.router.R4.tx.join_ack" in out

    def test_stats_json(self, capsys):
        import json

        assert main(["stats", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["cbt.router.R4.tx.hello"] > 0
        assert "netsim.scheduler.events_processed" in snapshot

    def test_stats_no_match(self, capsys):
        assert main(["stats", "--match", "zz.nothing.*"]) == 0
        assert "no matching instruments" in capsys.readouterr().out

    def test_trace_human(self, capsys):
        assert main(["trace", "--type", "protocol", "--limit", "0"]) == 0
        out = capsys.readouterr().out
        assert "kind=joined" in out

    def test_trace_jsonl(self, capsys, tmp_path):
        from repro.telemetry.tracebus import load_jsonl

        target = tmp_path / "trace.jsonl"
        assert main(["trace", "--jsonl", str(target)]) == 0
        with open(target) as fh:
            records = load_jsonl(fh)
        assert records
        assert {r.RECORD_TYPE for r in records} >= {"protocol", "membership"}

    def test_trace_jsonl_into_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "absent" / "trace.jsonl"
        assert main(["trace", "--jsonl", str(target)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"{target}: No such file or directory"]
        assert not target.parent.exists()

    def test_trace_jsonl_stdout(self, capsys):
        assert main(["trace", "--jsonl", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('{"schema": "repro-trace/1"}')

    def test_trace_packet_jsonl_round_trips_the_packet_trace(self, tmp_path):
        # Packets ride the one repro-trace/1 stream: one PacketEvent per
        # record of the walkthrough's packet trace, in trace order.
        from dataclasses import replace

        from repro.cli import _run_figure1
        from repro.telemetry import PacketEvent
        from repro.telemetry.tracebus import load_jsonl

        target = tmp_path / "packets.jsonl"
        assert main(["trace", "--type", "packet", "--jsonl", str(target)]) == 0
        with open(target) as fh:
            records = load_jsonl(fh)
        # The same deterministic run; datagram uids count per process.
        trace = _run_figure1()[0].trace
        assert len(records) == len(trace) > 0
        assert all(type(r) is PacketEvent for r in records)
        assert [replace(r, uid=0) for r in records] == [
            replace(PacketEvent.from_trace_record(r), uid=0) for r in trace
        ]

    def test_trace_stream_merges_packets_after_bus_records_by_time(self, capsys):
        from repro.telemetry.tracebus import loads_jsonl

        assert main(["trace", "--jsonl", "-"]) == 0
        records = loads_jsonl(capsys.readouterr().out)
        assert {r.RECORD_TYPE for r in records} >= {"protocol", "membership", "packet"}
        keys = [(r.time, r.RECORD_TYPE == "packet") for r in records]
        assert keys == sorted(keys)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


def _one_line_exit_2(capsys, argv):
    """``argv`` is refused with one stderr line, exit 2, no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Traceback" not in err[0], err
    return err[0]


class TestNumericInputsFailTyped:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["compare", "--size", "5", "--members", "50"], "only 5 hosts"),
            (["compare", "--size", "1"], "at least 2 nodes"),
            (["compare", "--members", "-1"], "negative"),
            (["compare", "--senders", "-1"], "--senders"),
            (["topology", "--kind", "waxman", "--size", "0"], "at least 2 nodes"),
            (["topology", "--kind", "ba", "--size", "1"], "n > m"),
            (["ci", "--workers", "-1"], "--workers"),
        ],
    )
    def test_rejected(self, capsys, tmp_path, argv, needle):
        if argv[0] == "ci":
            argv = argv + ["--report", str(tmp_path / "report.json")]
        assert needle in _one_line_exit_2(capsys, argv)
        assert not (tmp_path / "report.json").exists()


class TestExplorerBoundsFailTyped:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--depth", "-1"], "max_decisions"),
            (["--drop-budget", "-1"], "drop_budget"),
            (["--max-alternatives", "-3"], "max_alternatives"),
            (["--backward", "--max-deviations", "-2"], "max_deviations"),
            (["--backward", "--budget", "-1"], "budget"),
        ],
    )
    def test_rejected(self, capsys, tmp_path, argv, needle):
        line = _one_line_exit_2(
            capsys,
            ["explore", "--scenario", "joins-race", "--export-dir", str(tmp_path)] + argv,
        )
        assert needle in line
        assert not list(tmp_path.iterdir())
