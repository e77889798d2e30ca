"""Workload cells, quality probe, CI wiring, and the golden
flash-crowd trace (ISSUE-9 tentpole + satellites 2 and 6)."""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.harness.scenarios import build_cbt_group
from repro.telemetry.tracebus import dumps_jsonl
from repro.workloads.cell import (
    WORKLOAD_TOPOLOGIES,
    WORKLOADS,
    _build_topology,
    _member_join,
    _member_leave,
    _send_segment,
    run_churn_cell,
    run_flash_crowd_cell,
    run_workload_cell,
)
from repro.workloads.flashcrowd import FlashCrowdConfig, generate_flash_crowd
from repro.workloads.probe import QualityProbe, histogram_percentile

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "traces")

#: Number of trace records pinned from the start of the golden flash
#: crowd (the prefix covers the arrival burst and the start of the
#: leave-on-completion teardown).
GOLDEN_PREFIX = 30


class TestHistogramPercentile:
    class FakeHistogram:
        def __init__(self, bounds, bucket_counts):
            self.bounds = tuple(bounds)
            self.bucket_counts = list(bucket_counts)
            self.count = sum(bucket_counts)

    def test_empty_returns_zero(self):
        assert histogram_percentile([], 0.5) == 0.0
        empty = self.FakeHistogram((1.0, 2.0), [0, 0, 0])
        assert histogram_percentile([empty], 0.95) == 0.0

    def test_single_histogram_upper_bound(self):
        h = self.FakeHistogram((1.0, 2.0, 4.0), [5, 3, 1, 0])
        assert histogram_percentile([h], 0.5) == 1.0  # 5/9 >= 0.5
        assert histogram_percentile([h], 0.85) == 2.0  # 8/9 >= 0.85
        assert histogram_percentile([h], 1.0) == 4.0

    def test_merges_across_histograms(self):
        a = self.FakeHistogram((1.0, 2.0), [10, 0, 0])
        b = self.FakeHistogram((1.0, 2.0), [0, 10, 0])
        assert histogram_percentile([a, b], 0.5) == 1.0
        assert histogram_percentile([a, b], 0.75) == 2.0

    def test_overflow_reports_last_finite_bound(self):
        h = self.FakeHistogram((1.0, 2.0), [0, 0, 7])
        assert histogram_percentile([h], 0.5) == 2.0

    def test_telemetry_histograms_share_one_set_of_bounds(self):
        # The merge adds bucket counts index by index with no bounds
        # check: it relies on every telemetry histogram having the class
        # bounds, however it was made.
        from repro.telemetry.registry import DEFAULT_BUCKETS, Histogram, MetricsRegistry

        registry = MetricsRegistry()
        made = [Histogram("a"), registry.histogram("b"), registry.histogram("c")]
        for histogram in made:
            assert histogram.bounds == DEFAULT_BUCKETS
            assert len(histogram.bucket_counts) == len(DEFAULT_BUCKETS) + 1
        made[0].observe(DEFAULT_BUCKETS[0])
        made[1].observe(DEFAULT_BUCKETS[-1] * 2)
        assert histogram_percentile(made, 0.5) == DEFAULT_BUCKETS[0]
        assert histogram_percentile(made, 1.0) == DEFAULT_BUCKETS[-1]

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            histogram_percentile([], 0.0)
        with pytest.raises(ValueError):
            histogram_percentile([], 1.5)


class TestQualityProbe:
    def _domain(self):
        network, hosts, cores = _build_topology("figure1", 0)
        domain, group = build_cbt_group(network, [], cores)
        return network, hosts, domain, group

    def test_membership_and_control_models(self):
        network, hosts, domain, group = self._domain()
        probe = QualityProbe(domain, group, source_host=hosts[0])
        n = len(network.routers)
        probe.note_first_transmit()
        probe.note_first_transmit()  # idempotent: one flood only
        probe.note_join(hosts[1])
        probe.note_leave(hosts[1])
        sample = probe.sample()
        assert sample.control_mospf_model == 2 * n  # one LSA per change
        assert sample.control_dvmrp_model >= n  # the initial flood
        assert sample.members == 0
        assert probe.members == []

    def test_sample_tracks_live_tree(self):
        network, hosts, domain, group = self._domain()
        probe = QualityProbe(domain, group, source_host=hosts[0])
        member = hosts[1]
        domain.join_host(member, group)
        probe.note_join(member)
        network.run(until=network.scheduler.now + 3.0)
        sample = probe.sample()
        assert sample.members == 1
        assert sample.on_tree_routers >= 1
        assert sample.tree_cost_cbt >= 0.0
        assert probe.member_routers()  # the member LAN has a router

    def test_periodic_sampling_start_stop(self):
        network, hosts, domain, group = self._domain()
        probe = QualityProbe(
            domain, group, source_host=hosts[0], interval=1.0
        )
        probe.start()
        network.run(until=network.scheduler.now + 3.5)
        probe.stop()
        taken = len(probe.samples)
        assert taken == 3
        network.run(until=network.scheduler.now + 3.0)
        assert len(probe.samples) == taken  # stopped means stopped

    def test_bad_interval_rejected(self):
        network, hosts, domain, group = self._domain()
        with pytest.raises(ValueError):
            QualityProbe(domain, group, source_host=hosts[0], interval=0.0)


#: Every ``QualitySample.fingerprint()`` of two cells, as the probe
#: reported them when it re-walked every router, rebuilt the address
#: map and re-ran Dijkstra per sample (PR 19).  The probe now reads
#: ``CBTDomain.router_of``, the ``Graph`` shortest-path memo and the
#: ``ControlStats`` counters; what it reports may not move.
FLASH_WAXMAN16_SEED3_SAMPLES = (
    (7.0, 2, 7, 6.0, 11.0, 1.0, 1.0, 25, 30, 32, 0.25, 0.25, 0.25),
    (9.0, 8, 14, 13.0, 14.0, 1.0, 1.0, 65, 56, 128, 0.25, 0.5, 0.5),
    (11.0, 8, 14, 13.0, 14.0, 1.0, 1.0, 78, 56, 128, 0.25, 0.5, 0.5),
    (13.0, 1, 14, 13.0, 5.0, 1.0, 1.0, 104, 91, 240, 0.25, 0.5, 0.5),
    (15.0, 0, 14, 13.0, 0.0, 0.0, 0.0, 117, 96, 256, 0.25, 0.5, 0.5),
    (17.0, 0, 6, 5.0, 0.0, 0.0, 0.0, 147, 96, 256, 0.25, 0.5, 0.5),
    (19.0, 0, 1, 0.0, 0.0, 0.0, 0.0, 156, 96, 256, 0.25, 0.5, 0.5),
    (21.0, 0, 1, 0.0, 0.0, 0.0, 0.0, 156, 96, 256, 0.25, 0.5, 0.5),
    (23.0, 0, 1, 0.0, 0.0, 0.0, 0.0, 156, 96, 256, 0.25, 0.5, 0.5),
    (25.0, 0, 1, 0.0, 0.0, 0.0, 0.0, 156, 96, 256, 0.25, 0.5, 0.5),
)
POISSON_FIGURE1_SEED3_SAMPLES = (
    (7.0, 4, 6, 5.0, 6.0, 1.0, 1.0, 26, 31, 72, 0.025, 0.05, 0.05),
    (9.0, 6, 6, 5.0, 6.0, 1.0, 1.0, 31, 36, 96, 0.025, 0.05, 0.05),
    (11.0, 6, 6, 5.0, 6.0, 1.0, 1.0, 36, 46, 144, 0.025, 0.05, 0.05),
    (13.0, 6, 6, 5.0, 6.0, 1.0, 1.0, 46, 52, 168, 0.025, 0.05, 0.05),
    (15.0, 6, 8, 7.0, 7.0, 1.0, 1.0, 61, 65, 216, 0.05, 0.05, 0.05),
    (17.0, 6, 9, 8.0, 6.0, 1.0, 1.0, 72, 79, 264, 0.025, 0.05, 0.05),
    (19.0, 6, 9, 8.0, 6.0, 1.0, 1.0, 88, 83, 288, 0.025, 0.05, 0.05),
    (21.0, 9, 9, 8.0, 8.0, 1.0, 1.0, 102, 98, 372, 0.025, 0.05, 0.05),
    (23.0, 9, 9, 8.0, 7.0, 1.0, 1.0, 110, 107, 396, 0.025, 0.05, 0.05),
    (25.0, 7, 9, 8.0, 7.0, 1.0, 1.0, 126, 114, 420, 0.025, 0.05, 0.05),
    (27.0, 8, 9, 8.0, 8.0, 1.0, 1.0, 134, 123, 456, 0.025, 0.05, 0.05),
    (29.0, 6, 9, 8.0, 6.0, 1.0, 1.0, 142, 135, 504, 0.025, 0.05, 0.05),
    (31.0, 6, 9, 8.0, 6.0, 1.0, 1.0, 158, 142, 528, 0.025, 0.05, 0.05),
    (33.0, 6, 9, 8.0, 7.0, 1.0, 1.0, 166, 149, 576, 0.025, 0.05, 0.05),
    (35.0, 6, 9, 8.0, 7.0, 1.0, 1.0, 174, 154, 600, 0.025, 0.05, 0.05),
    (37.0, 0, 8, 7.0, 0.0, 0.0, 0.0, 190, 170, 672, 0.025, 0.05, 0.05),
    (39.0, 0, 8, 7.0, 0.0, 0.0, 0.0, 197, 170, 672, 0.025, 0.05, 0.05),
    (41.0, 0, 1, 0.0, 0.0, 0.0, 0.0, 218, 170, 672, 0.025, 0.05, 0.05),
    (43.0, 0, 1, 0.0, 0.0, 0.0, 0.0, 218, 170, 672, 0.025, 0.05, 0.05),
    (45.0, 0, 1, 0.0, 0.0, 0.0, 0.0, 218, 170, 672, 0.025, 0.05, 0.05),
    (47.0, 0, 1, 0.0, 0.0, 0.0, 0.0, 218, 170, 672, 0.025, 0.05, 0.05),
)


class TestWorkloadCells:
    def test_flash_crowd_small_topology_clean(self):
        result = run_flash_crowd_cell(
            topology="waxman16", seed=3, quick=True, clients=8
        )
        assert result.clean, (result.violations, result.missing)
        assert result.joins == result.leaves == 8
        assert result.expected_pairs > 0
        assert result.delivered_pairs == result.expected_pairs
        assert result.duplicate_pairs == 0
        assert result.continuity == 1.0
        assert result.drained
        assert result.final_on_tree <= result.cores
        assert set(result.snapshots) == {"mid-burst", "drain"}
        assert all(not f for f in result.snapshots.values())
        assert result.sample_fingerprints == FLASH_WAXMAN16_SEED3_SAMPLES

    @pytest.mark.parametrize("process", ["poisson", "pareto"])
    def test_churn_cells_clean(self, process):
        result = run_churn_cell(
            process, topology="figure1", seed=3, quick=True
        )
        assert result.clean, (result.violations, result.final_findings)
        assert result.joins == result.leaves > 0
        assert result.recovered
        assert result.control_cbt > 0
        assert result.control_mospf_model > 0
        if process == "poisson":
            assert result.sample_fingerprints == POISSON_FIGURE1_SEED3_SAMPLES

    @pytest.mark.parametrize(
        "quick, events",
        [
            (True, {"poisson": 1805, "pareto": 1800}),
            (False, {"poisson": 4643, "pareto": 4832}),
        ],
    )
    def test_churn_sim_events_are_pinned(self, quick, events):
        """Simulated events of the two waxman16 churn cells at seed 17,
        compared for equality: any change means churn behaves
        differently.  (2515 / 2545 and 5933 / 6183 while HELLOs also
        crossed point-to-point links, 2155 / 2165 and 5213 / 5423 while
        IGMP queries did, 1885 / 1880 and 4835 / 5024 while a LAN with
        no CBT peer got a HELLO every interval; control messages are
        unchanged.)"""
        for process, expected in events.items():
            result = run_churn_cell(process, topology="waxman16", seed=17, quick=quick)
            assert result.clean, (process, result.findings()[:5])
            assert result.sim_events == expected, process

    def test_cells_deterministic(self):
        a = run_flash_crowd_cell(
            topology="waxman16", seed=7, quick=True, clients=6
        )
        b = run_flash_crowd_cell(
            topology="waxman16", seed=7, quick=True, clients=6
        )
        assert a.fingerprint() == b.fingerprint()
        c = run_churn_cell("poisson", topology="figure1", seed=7, quick=True)
        d = run_churn_cell("poisson", topology="figure1", seed=7, quick=True)
        assert c.fingerprint() == d.fingerprint()

    def test_dispatcher_and_validation(self):
        result = run_workload_cell("poisson", topology="figure1", quick=True)
        assert result.process == "poisson"
        with pytest.raises(KeyError):
            run_workload_cell("flashmob")
        with pytest.raises(KeyError):
            run_churn_cell("uniform")
        with pytest.raises(KeyError):
            _build_topology("bulk9999", 0)
        assert set(WORKLOADS) == {"flash-crowd", "poisson", "pareto"}
        assert "bulk1000" in WORKLOAD_TOPOLOGIES

    def test_mid_stream_joiner_receives_ongoing_data(self):
        # The bootcast property in isolation: a client that joins
        # mid-stream receives the segments sent during its stable
        # window and none is double-delivered.
        result = run_flash_crowd_cell(
            topology="figure1", seed=1, quick=True, clients=4
        )
        assert result.clean
        assert result.segments > 0
        assert result.expected_pairs > 0


class TestCiWiring:
    def test_tiers_carry_workload_units(self):
        from repro.harness.tiers import build_tier

        for tier, quick in (("chaos", True), ("full", True), ("nightly", False)):
            units = [u for u in build_tier(tier) if u.kind == "workload"]
            ids = sorted(u.unit_id for u in units)
            assert ids == [
                "workload/flash-crowd/bulk1000/0",
                "workload/pareto/waxman16/0",
                "workload/poisson/waxman16/0",
            ], tier
            assert all(u.param_dict["quick"] is quick for u in units), tier

    def test_workload_unit_seeds_are_derived_and_distinct(self):
        from repro.harness.tiers import _workload_units

        units = _workload_units(0, quick=True)
        seeds = [u.param_dict["seed"] for u in units]
        assert len(set(seeds)) == len(seeds)
        reseeded = _workload_units(1, quick=True)
        assert [u.param_dict["seed"] for u in reseeded] != seeds
        assert [u.unit_id for u in reseeded] == [u.unit_id for u in units]

    def test_executor_runs_churn_unit(self):
        from repro.harness.parallel import execute_unit
        from repro.harness.tiers import _workload_units

        unit = next(
            u
            for u in _workload_units(0, quick=True)
            if u.param_dict["workload"] == "poisson"
        )
        outcome = execute_unit(unit.to_dict())
        assert outcome["status"] == "ok", outcome["detail"]
        assert outcome["fingerprint"]
        assert outcome["metrics"]["ci.workload.clean"] == 1
        assert outcome["metrics"]["ci.workload.poisson.sim_events"] > 0

    def test_workload_timeout_registered(self):
        from repro.harness.parallel import UNIT_KINDS, WorkUnit

        assert UNIT_KINDS["workload"].timeout == 900.0
        assert WorkUnit.make("workload", "w", {}).timeout == 900.0

    def test_experiment_index_lists_e20(self):
        from repro.cli import EXPERIMENTS

        assert any(
            exp_id == "E20" and bench == "bench_flash_crowd.py"
            for exp_id, bench, _ in EXPERIMENTS
        )


class TestCliVerb:
    def test_churn_verb_exits_clean(self, capsys):
        assert main(["workload", "poisson", "--topology", "figure1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "recovered=yes" in out
        assert "clean" in out
        assert "ctl/mospf" in out  # the probe table rendered

    def test_flash_verb_small_topology(self, capsys):
        assert (
            main(
                [
                    "workload",
                    "flash-crowd",
                    "--topology",
                    "waxman16",
                    "--quick",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "continuity=1.0000" in out
        assert "drained=yes" in out
        assert "snapshot drain: clean" in out

    def test_unknown_topology_rejected(self, capsys):
        assert main(["workload", "poisson", "--topology", "nope"]) == 2
        assert "unknown topology" in capsys.readouterr().err


def golden_flash_records():
    """The deterministic mini flash crowd behind the golden trace:
    eight clients on Figure 1, one segment per second, run past the
    drain so the leave-on-completion teardown is in the trace."""
    network, hosts, cores = _build_topology("figure1", 0)
    domain, group = build_cbt_group(network, [], cores)
    probe = QualityProbe(domain, group, source_host=hosts[0])
    config = FlashCrowdConfig(ramp=2.0, hold=3.0, segment_spacing=1.0, seed=9)
    crowd = generate_flash_crowd(
        hosts[1:9], config, start=network.scheduler.now + 0.5
    )
    call_at = network.scheduler.call_at
    for event in crowd.schedule.events:
        action = _member_join if event.action == "join" else _member_leave
        call_at(event.time, action, probe, domain, event.host, group)
    sent = []
    source = network.host(hosts[0])
    for at in crowd.segments:
        call_at(at, _send_segment, network, source, group, sent, probe)
    network.run(until=crowd.drain_time + 8.0)
    return network.telemetry.bus.records()


def write_golden() -> str:
    """Regenerate the pinned prefix after an intentional change::

        PYTHONPATH=src:. python -c \
            "from tests.test_workloads import write_golden; write_golden()"
    """
    path = os.path.join(GOLDEN_DIR, "flash_crowd.jsonl")
    with open(path, "w") as fh:
        fh.write(dumps_jsonl(golden_flash_records()[:GOLDEN_PREFIX]))
    return path


class TestGoldenFlashCrowd:
    """The flash-crowd trace prefix is pinned byte-for-byte, the way
    ``tests/traces/figure1.jsonl`` pins the walkthrough."""

    def test_golden_prefix_matches(self):
        with open(os.path.join(GOLDEN_DIR, "flash_crowd.jsonl")) as fh:
            golden = fh.read()
        live = dumps_jsonl(golden_flash_records()[:GOLDEN_PREFIX])
        assert live == golden

    def test_golden_prefix_parses_and_shows_the_lifecycle(self):
        from repro.telemetry.tracebus import load_jsonl

        with open(os.path.join(GOLDEN_DIR, "flash_crowd.jsonl")) as fh:
            records = load_jsonl(fh)
        assert len(records) == GOLDEN_PREFIX
        kinds = {r.RECORD_TYPE for r in records}
        assert "protocol" in kinds and "membership" in kinds
        joined = [
            r
            for r in records
            if r.RECORD_TYPE == "protocol" and r.kind == "joined"
        ]
        assert joined  # the burst's joins are inside the prefix
        losses = [
            r
            for r in records
            if r.RECORD_TYPE == "membership" and not r.present
        ]
        assert losses  # ...and so is the start of the teardown
