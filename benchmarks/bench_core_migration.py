"""E19 — core migration: member-locality handover before/after.

Core placement is the CBT papers' acknowledged open problem; a core
chosen at group creation degrades as the membership drifts.  This
experiment runs the migration cell on each campaign topology: a
deterministic churn skews membership away from the announced primary,
the coordinator detects the drift and executes the make-before-break
handover, and the cell measures the paper's own trade-off axes —
delay stretch, traffic concentration, delivery continuity, and the
control cost of the handover — before and after, under the always-on
invariant auditor.

Expectation: the handover completes cleanly (no stranded members, no
forwarding loops), delivery continuity is preserved, and the new
locality-placed core does not degrade mean stretch for the post-churn
membership.
"""

from benchmarks.conftest import publish
from repro.harness.experiment import Experiment
from repro.harness.migration_cell import run_migration_cell

TOPOLOGIES = ("figure1", "grid9", "waxman16")
SEED = 0


def migration_run(topology: str) -> tuple:
    cell = run_migration_cell(topology, seed=SEED)
    return (
        topology,
        f"{cell.old_primary}->{cell.new_primary}",
        round(cell.quality_before.get("stretch_mean", 0.0), 3),
        round(cell.quality_after.get("stretch_mean", 0.0), 3),
        round(cell.quality_before.get("concentration_max", 0.0), 3),
        round(cell.quality_after.get("concentration_max", 0.0), 3),
        f"{cell.delivery_before:.2f}/{cell.delivery_after:.2f}",
        cell.migration_control_cost,
        cell.clean,
    )


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E19",
        title="Core migration: locality handover before/after",
        paper_expectation=(
            "make-before-break handover preserves delivery continuity "
            "and re-centres the tree on the drifted membership at a "
            "bounded one-off control cost"
        ),
    )
    rows = [migration_run(t) for t in TOPOLOGIES]
    exp.run_sweep(
        [
            "topology",
            "handover",
            "stretch before",
            "stretch after",
            "conc before",
            "conc after",
            "delivery b/a",
            "control cost",
            "clean",
        ],
        rows,
        lambda r: r,
    )
    return exp


def test_core_migration(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E19_core_migration", exp.report())
    for row in exp.result.rows:
        # Every cell: auditor-clean handover with delivery continuity.
        assert row[8], f"{row[0]}: handover not clean"
        assert row[6] == "1.00/1.00", f"{row[0]}: delivery degraded ({row[6]})"
        # The handover is a bounded one-off cost, not runaway signalling.
        assert row[7] < 200, f"{row[0]}: control cost {row[7]}"
