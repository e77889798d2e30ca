"""Named CI tiers, gate evaluation, and the ``repro-ci-report/1``
document behind the ``repro ci`` CLI verb.

A *tier* is a deterministic list of :class:`~repro.harness.parallel.WorkUnit`
built entirely from ``(tier name, base seed)`` — unit identity and every
parameter (including each cell's :func:`~repro.netsim.faults.derive_seed`
sub-seed) are pinned before any worker starts, so the merged fingerprint
of a tier run is byte-identical for any ``--workers`` count, any
``--shard i/n`` split, and any completion order.

Tiers (see docs/CI.md for the full contract):

========  ==================================================================
lint      ruff (or the built-in fallback) over src/tests/benchmarks/examples
smoke     quick chaos cells + the quick baseline-compare cells + a
          bounded exploration + a fast pytest group
chaos     the full chaos campaign, one unit per (topology, scenario, cell),
          plus the quick baseline-compare cells (CBT vs DVMRP vs
          HPIM-DM under identical fault schedules), plus one
          core-migration experiment cell per topology, plus the
          production-workload cells (quick flash crowd on the n=1000
          bulk topology, Poisson and Pareto on/off churn on waxman16)
explore   every explorer scenario at full depth, one unit per scenario
tier1     the whole pytest suite in round-robin file groups, the
          benchmarks/e2e self-test, every experiment table compared
          with its committed copy + coverage floors
bench     the perf-regression suite, one unit per benchmark module
full      chaos + explore + tier1 + bench (quick) + lint
nightly   full with deeper exploration, more chaos cells, the full
          baseline-compare matrix (every replayable scenario × every
          topology), full-size benches and workload cells (160-client
          flash crowd), and the budgeted backward search
          (``explore-deep`` cells, one per (scenario, predicate) with
          pinned sub-seeds; stats surface as ``ci.explore.backward.*``
          in the merged metrics)
========  ==================================================================

The ``repro-ci-report/1`` JSON document captures the tier, the unit
records (status/attempts/wall/fingerprint/detail), the deterministic
merged fingerprint, merged telemetry metrics, and the gate verdicts.
``repro ci --replay-shard UNIT_ID`` re-runs any unit from a report
inline for local debugging.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.parallel import (
    REPO_ROOT,
    UnitResult,
    WorkUnit,
    merge_metrics,
    merged_fingerprint,
    run_units,
    shard_units,
)
from repro.netsim.faults import derive_seed

REPORT_SCHEMA = "repro-ci-report/1"

#: Default bench-artifact directory for CI runs (gitignored).
DEFAULT_BENCH_DIR = os.path.join(REPO_ROOT, "bench-artifacts")

#: Fast pytest files used by the smoke tier: end-to-end protocol
#: integration, the determinism pin, and the CLI surface.
SMOKE_PYTEST_FILES = (
    "tests/test_integration.py",
    "tests/test_determinism.py",
    "tests/test_cli.py",
)

#: Number of pytest file groups in the tier1 matrix.  Fixed (not a
#: function of ``--workers``) so unit identity — and therefore the
#: merged fingerprint — is independent of the worker count.
PYTEST_GROUPS = 8


def _files(directory: str, prefix: str) -> List[str]:
    """The ``prefix*.py`` files of a repository directory, sorted."""
    return sorted(
        f"{directory}/{name}"
        for name in os.listdir(os.path.join(REPO_ROOT, directory))
        if name.startswith(prefix) and name.endswith(".py")
    )


def pytest_groups(group_count: int = PYTEST_GROUPS) -> List[List[str]]:
    """Round-robin the sorted test files into ``group_count`` groups."""
    groups: List[List[str]] = [[] for _ in range(group_count)]
    for index, name in enumerate(_files("tests", "test_")):
        groups[index % group_count].append(name)
    return [group for group in groups if group]


def _chaos_units(seed: int, reps: Dict[str, int]) -> List[WorkUnit]:
    from repro.chaos.scenarios import SCENARIOS
    from repro.harness.campaign import TOPOLOGIES

    units = []
    for topology in sorted(TOPOLOGIES):
        for scenario in sorted(SCENARIOS):
            for rep in range(reps.get(topology, 1)):
                cell_seed = derive_seed(seed, "chaos", topology, scenario, rep)
                units.append(
                    WorkUnit.make(
                        "chaos",
                        f"chaos/{topology}/{scenario}/{rep}",
                        {
                            "topology": topology,
                            "scenario": scenario,
                            "seed": cell_seed,
                        },
                    )
                )
    return units


def _chaos_quick_units(seed: int) -> List[WorkUnit]:
    """The first ``figure1`` cell of each quick scenario."""
    from repro.chaos.scenarios import QUICK_SCENARIOS

    return [
        unit
        for unit in _chaos_units(seed, {})
        if unit.param_dict["topology"] == "figure1"
        and unit.param_dict["scenario"] in QUICK_SCENARIOS
    ]


def _baseline_compare_units(seed: int, quick: bool = True) -> List[WorkUnit]:
    """CBT vs DVMRP vs HPIM-DM cells under identical fault schedules.

    Quick mode runs the two smoke cells on Figure 1; the nightly
    matrix sweeps every replayable scenario across every topology.
    Each cell's sub-seed is pinned at build time like every other
    kind, so the merged fingerprint is worker-count independent.
    """
    from repro.harness.baseline_cell import (
        BASELINE_SCENARIOS,
        QUICK_BASELINE_CELLS,
    )
    from repro.harness.campaign import TOPOLOGIES

    if quick:
        cells = list(QUICK_BASELINE_CELLS)
    else:
        cells = [
            (scenario, topology)
            for topology in sorted(TOPOLOGIES)
            for scenario in sorted(BASELINE_SCENARIOS)
        ]
    return [
        WorkUnit.make(
            "baseline-compare",
            f"baseline-compare/{topology}/{scenario}/0",
            {
                "topology": topology,
                "scenario": scenario,
                "seed": derive_seed(
                    seed, "baseline-compare", topology, scenario, 0
                ),
            },
        )
        for scenario, topology in cells
    ]


def _migration_units(seed: int, reps: int = 1) -> List[WorkUnit]:
    from repro.harness.campaign import TOPOLOGIES

    return [
        WorkUnit.make(
            "migration",
            f"migration/{topology}/{rep}",
            {
                "topology": topology,
                "seed": derive_seed(seed, "migration-cell", topology, rep),
            },
        )
        for topology in sorted(TOPOLOGIES)
        for rep in range(reps)
    ]


#: The production-workload cell matrix: the bootcast flash crowd runs
#: on the n=1000 bulk topology (the acceptance surface), the two churn
#: processes on waxman16.
WORKLOAD_CELLS = (
    ("flash-crowd", "bulk1000"),
    ("pareto", "waxman16"),
    ("poisson", "waxman16"),
)


def _workload_units(seed: int, quick: bool = True) -> List[WorkUnit]:
    """One production-workload cell per (workload, topology)."""
    return [
        WorkUnit.make(
            "workload",
            f"workload/{workload}/{topology}/0",
            {
                "workload": workload,
                "topology": topology,
                "quick": quick,
                "seed": derive_seed(seed, "workload", workload, topology, 0),
            },
        )
        for workload, topology in WORKLOAD_CELLS
    ]


def _explore_units(depth: int, drop_budget: int = 1) -> List[WorkUnit]:
    from repro.explore.scenarios import SCENARIOS

    return [
        WorkUnit.make(
            "explore",
            f"explore/{name}/d{depth}",
            {"scenario": name, "depth": depth, "drop_budget": drop_budget},
        )
        for name in sorted(SCENARIOS)
    ]


#: Scenarios carrying the nightly deep-search cells: the two whose
#: interesting interleavings sit past the forward depth bound (the
#: migration handover and the quit/join races).
DEEP_SCENARIOS = ("joins-race", "migration-race", "quit-race")

def _explore_deep_units(
    seed: int,
    budget: int = 250,
    scenarios: Sequence[str] = DEEP_SCENARIOS,
) -> List[WorkUnit]:
    """One budgeted backward-search unit per (scenario, predicate)."""
    from repro.explore.predicates import PREDICATES

    return [
        WorkUnit.make(
            "explore-deep",
            f"explore-deep/{name}/{predicate}",
            {
                "scenario": name,
                "predicates": [predicate],
                "budget": budget,
                "max_deviations": 3,
                "seed": derive_seed(seed, "explore-deep", name, predicate),
            },
        )
        for name in sorted(scenarios)
        for predicate in sorted(PREDICATES)
    ]


def _bench_units(quick: bool, bench_dir: Optional[str]) -> List[WorkUnit]:
    if REPO_ROOT not in sys.path:
        sys.path.insert(0, REPO_ROOT)
    from benchmarks.perf.suite import BENCHMARKS

    return [
        WorkUnit.make(
            "bench",
            f"bench/{name}",
            {
                "name": name,
                "quick": quick,
                "output_dir": bench_dir or DEFAULT_BENCH_DIR,
            },
        )
        for name in sorted(BENCHMARKS)
    ]


def _pytest_units(tag: str, groups: Sequence[Sequence[str]]) -> List[WorkUnit]:
    return [
        WorkUnit.make(
            "pytest",
            f"pytest/{tag}/g{index}",
            {"paths": list(group)},
        )
        for index, group in enumerate(groups)
    ]


def build_tier(
    tier: str, seed: int = 0, bench_dir: Optional[str] = None
) -> List[WorkUnit]:
    """Construct the unit list for a named tier (sorted by unit_id)."""
    if tier == "lint":
        units = [WorkUnit.make("lint", "lint", {})]
    elif tier == "smoke":
        units = (
            _chaos_quick_units(seed)
            + _baseline_compare_units(seed, quick=True)
            + [
                unit
                for unit in _explore_units(depth=4)
                if unit.unit_id == "explore/joins-race/d4"
            ]
            + _pytest_units("smoke", [list(SMOKE_PYTEST_FILES)])
        )
    elif tier == "chaos":
        units = (
            _chaos_units(seed, {"figure1": 3, "grid9": 2, "waxman16": 2})
            + _baseline_compare_units(seed, quick=True)
            + _migration_units(seed)
            + _workload_units(seed, quick=True)
        )
    elif tier == "explore":
        units = _explore_units(depth=4)
    elif tier == "tier1":
        units = _pytest_units("tier1", pytest_groups()) + [
            # The frozen end-to-end benchmark's self-test (scaled-down
            # workloads, seconds): fails when a change breaks a name
            # ``benchmarks/e2e`` imports from ``src/repro``.
            WorkUnit.make("pytest", "pytest/tier1/e2e", {"paths": ["benchmarks/e2e"]}),
            # Every experiment table, regenerated into the run's fresh
            # results directory: ``benchmarks/conftest.py`` fails the run
            # on any byte that differs from ``benchmarks/results/`` or
            # from RESULTS.md.
            WorkUnit.make(
                "pytest",
                "pytest/tier1/experiments",
                {
                    "paths": _files("benchmarks", "bench_"),
                    # One run per bench, no timing table: the tables
                    # are the result, and a drift line stays in view.
                    "args": ["--benchmark-disable"],
                },
            ),
            WorkUnit.make("coverage", "coverage", {}),
        ]
    elif tier == "bench":
        units = _bench_units(quick=True, bench_dir=bench_dir)
    elif tier == "full":
        units = [
            unit
            for part in ("lint", "chaos", "explore", "tier1", "bench")
            for unit in build_tier(part, seed, bench_dir)
        ]
    elif tier == "nightly":
        units = (
            build_tier("lint")
            + build_tier("tier1")
            + _chaos_units(seed, {"figure1": 5, "grid9": 3, "waxman16": 3})
            + _baseline_compare_units(seed, quick=False)
            + _migration_units(seed, reps=2)
            + _workload_units(seed, quick=False)
            + _explore_units(depth=5)
            + _explore_deep_units(seed)
            + _bench_units(quick=False, bench_dir=bench_dir)
        )
    else:
        raise KeyError(
            f"unknown tier {tier!r}; known: {', '.join(TIERS)}"
        )
    return sorted(units, key=lambda u: u.unit_id)


TIERS: Tuple[str, ...] = (
    "lint",
    "smoke",
    "chaos",
    "explore",
    "tier1",
    "bench",
    "full",
    "nightly",
)


# -- gates ------------------------------------------------------------------


@dataclass
class Gate:
    """One pass/fail verdict in the report (``skipped`` still passes)."""

    name: str
    passed: bool
    skipped: bool
    detail: str

    def to_record(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "passed": self.passed,
            "skipped": self.skipped,
            "detail": self.detail,
        }


def evaluate_gates(results: Sequence[UnitResult]) -> List[Gate]:
    """Deterministic gate verdicts over the merged results."""
    gates: List[Gate] = []
    failed = [r for r in results if not r.ok]
    gates.append(
        Gate(
            name="units",
            passed=not failed,
            skipped=False,
            detail=(
                "all units passed"
                if not failed
                else "failed: "
                + ", ".join(f"{r.unit_id}({r.status})" for r in failed[:20])
            ),
        )
    )
    lint = [r for r in results if r.kind == "lint"]
    if lint:
        bad = [r for r in lint if not r.ok]
        gates.append(
            Gate(
                name="lint",
                passed=not bad,
                skipped=False,
                detail="clean" if not bad else "; ".join(bad[0].detail[:5]),
            )
        )
    bench = [r for r in results if r.kind == "bench"]
    if bench:
        regressions = [
            line
            for r in bench
            for line in r.detail
            if line.startswith("REGRESSION")
        ]
        bad = [r for r in bench if not r.ok]
        gates.append(
            Gate(
                name="bench-regression",
                passed=not bad,
                skipped=False,
                detail=(
                    "every exact count equals its baseline; no paired "
                    "ratio regressed beyond the 3x factor"
                    if not bad
                    else "; ".join(regressions[:10])
                    or "bench unit failed: "
                    + ", ".join(r.unit_id for r in bad)
                ),
            )
        )
    coverage = [r for r in results if r.kind == "coverage"]
    if coverage:
        skipped = all(r.status == "skipped" for r in coverage)
        bad = [r for r in coverage if not r.ok]
        gates.append(
            Gate(
                name="coverage-floors",
                passed=not bad,
                skipped=skipped,
                detail="; ".join(
                    line for r in coverage for line in r.detail[:4]
                ),
            )
        )
    return gates


# -- the repro-ci-report/1 document -----------------------------------------


def build_report(
    tier: str,
    seed: int,
    workers: int,
    shard: Tuple[int, int],
    units: Sequence[WorkUnit],
    results: Sequence[UnitResult],
) -> Dict[str, object]:
    by_id = {u.unit_id: u for u in units}
    ordered = sorted(results, key=lambda r: r.unit_id)
    gates = evaluate_gates(ordered)
    counts: Dict[str, int] = {}
    for result in ordered:
        counts[result.status] = counts.get(result.status, 0) + 1
    return {
        "schema": REPORT_SCHEMA,
        "tier": tier,
        "seed": seed,
        "workers": workers,
        "shard": {"index": shard[0], "count": shard[1]},
        "python": sys.version.split()[0],
        "units": [r.to_record(by_id.get(r.unit_id)) for r in ordered],
        "merged": {
            "fingerprint": merged_fingerprint(ordered),
            "metrics": merge_metrics(ordered),
            "counts": dict(sorted(counts.items())),
            "wall_seconds": round(sum(r.wall_seconds for r in ordered), 3),
        },
        "gates": [g.to_record() for g in gates],
        "ok": all(g.passed for g in gates),
    }


def write_report(report: Dict[str, object], path: str) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path: str) -> Dict[str, object]:
    """The report at ``path``; ``ValueError`` naming the file when it
    is missing, not JSON, or not a ``repro-ci-report/1`` document."""
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read report ({exc.strerror})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON document ({exc})") from exc
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != REPORT_SCHEMA:
        raise ValueError(
            f"{path}: unsupported schema {schema!r} (expected {REPORT_SCHEMA})"
        )
    return report


def run_ci(
    tier: str,
    workers: int = 1,
    shard: Tuple[int, int] = (0, 1),
    seed: int = 0,
    bench_dir: Optional[str] = None,
    progress: Optional[Callable[[WorkUnit, UnitResult], None]] = None,
) -> Dict[str, object]:
    """Build the tier, shard it, fan it out, and return the report."""
    units = build_tier(tier, seed=seed, bench_dir=bench_dir)
    selected = shard_units(units, shard[0], shard[1])
    results = run_units(selected, workers=workers, progress=progress)
    return build_report(tier, seed, workers, shard, selected, results)


def replay_unit(
    report_path: str, unit_id: str
) -> Tuple[Optional[UnitResult], Optional[str]]:
    """Re-run one unit from a report inline; ``(result, error)``, where
    the error names the report and what is wrong with it (unreadable,
    not a report, no such unit, a unit kind this code does not run)."""
    try:
        report = load_report(report_path)
    except ValueError as exc:
        return None, str(exc)
    record = next(
        (u for u in report["units"] if u["unit_id"] == unit_id), None
    )
    if record is None:
        known = ", ".join(u["unit_id"] for u in report["units"][:40])
        return None, f"unit {unit_id!r} not in report (units: {known})"
    if "params" not in record:
        return None, f"report record for {unit_id!r} carries no params"
    try:
        unit = WorkUnit.from_dict(record)
    except ValueError as exc:
        return None, f"{report_path}: {exc}"
    results = run_units([unit], workers=0)
    return results[0], None
