"""E20 — bootcast flash crowd on the n=1000 bulk topology.

A single source streams content segments while a ramped burst of
clients joins the cast mid-stream, holds for its transfer, and leaves
on completion.  The cell audits what a production bootcast deployment
would demand of the protocol: exactly-once delivery to every client
for every segment inside its stable membership window, invariant- and
conservation-clean state at the mid-burst and drain snapshots, and a
tree that drains back to the core when the last client leaves.  The
quality probe reports join-latency percentiles and control overhead
against the modeled DVMRP/MOSPF baselines under the identical
schedule (see docs/WORKLOADS.md for the modeling assumptions).  The
simulated event count of each cell is a determinism datum, compared
byte for byte with the committed table.
"""

from benchmarks.conftest import publish
from repro.harness.experiment import Experiment
from repro.workloads.cell import run_flash_crowd_cell

SEED = 17


def run_experiment(quick: bool = False) -> Experiment:
    exp = Experiment(
        exp_id="E20",
        title="Bootcast flash crowd (n=1000 Waxman, ramped arrivals)",
        paper_expectation=(
            "the shared tree absorbs a concurrent join burst: every "
            "stably joined client receives every segment exactly once, "
            "join latency stays bounded by tree depth (not crowd "
            "size), control stays O(members), and the tree tears down "
            "to the core when the cast drains"
        ),
    )
    rows = []
    for label, clients in (("quick", 32), ("burst", 64 if quick else 160)):
        result = run_flash_crowd_cell(
            topology="bulk1000",
            seed=SEED,
            quick=(label == "quick"),
            clients=clients,
        )
        rows.append(
            (
                label,
                result.clients,
                result.segments,
                f"{result.delivered_pairs}/{result.expected_pairs}",
                result.duplicate_pairs,
                f"{result.join_p50 * 1000:.0f}/"
                f"{result.join_p95 * 1000:.0f}/"
                f"{result.join_p99 * 1000:.0f}",
                result.control_cbt,
                result.control_dvmrp_model,
                result.control_mospf_model,
                "yes" if result.drained else "NO",
                "yes" if result.clean else "NO",
                result.sim_events,
            )
        )
    exp.run_sweep(
        [
            "crowd",
            "clients",
            "segments",
            "delivered",
            "dups",
            "join p50/95/99 ms",
            "ctl cbt",
            "ctl dvmrp*",
            "ctl mospf*",
            "drained",
            "clean",
            "sim events",
        ],
        rows,
    )
    return exp


def test_flash_crowd(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E20_flash_crowd", exp.report())
    for row in exp.result.rows:
        delivered = row[3]
        got, expected = delivered.split("/")
        assert got == expected  # exactly-once for every stable window
        assert row[4] == 0  # no duplicates anywhere
        assert row[9] == "yes"  # cast drained back to the core
        assert row[10] == "yes"  # auditor + snapshots clean
