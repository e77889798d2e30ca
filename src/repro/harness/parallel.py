"""Parallel run orchestration: whole work units across worker processes.

The repository's heavy workloads — chaos, comparator, migration and
workload cells, explorer and backward-search cells, perf-benchmark
modules, and pytest test groups — are all *independent deterministic
work units* (one row per kind in :data:`UNIT_KINDS`): each derives
every bit of randomness from its own pinned seed (via
:func:`repro.netsim.faults.derive_seed`), touches no shared state, and
produces a machine-checkable result; no unit is a part of a simulation.
This module fans such units across N worker processes and folds the
results back together deterministically:

* **unit identity** — every :class:`WorkUnit` carries a stable
  ``unit_id`` and fully pinned parameters (including its derived
  seed), fixed at tier-build time.  Workers never generate seeds, so
  results are byte-identical regardless of worker count or completion
  order.
* **crash isolation** — each unit runs in its *own* child process
  (process-per-unit).  A unit that raises is reported as ``error``; a
  unit whose process dies without reporting (``os._exit``, a segfault)
  is ``crashed``; a unit that exceeds its timeout is killed and
  reported as ``timeout``.  Only that unit is affected.
* **retry accounting** — ``crashed``/``timeout`` units are retried up
  to ``unit.retries`` times (default one retry); deterministic
  failures (``failed``/``error``) are never retried, because a
  deterministic unit that failed once will fail again.
* **deterministic merge** — results are ordered by ``unit_id``;
  per-unit fingerprints exclude wall-clock and attempt counts, and
  :func:`merged_fingerprint` digests the sorted ``unit_id:fingerprint``
  pairs.  Worker :class:`~repro.telemetry.registry.MetricsRegistry`
  snapshots merge with :meth:`MetricsRegistry.merge` (key-wise sums).
* **cross-machine sharding** — :func:`shard_units` deterministically
  partitions a unit list into ``count`` disjoint, complete shards by
  round-robin over the sorted ``unit_id`` order, so ``--shard i/n``
  splits a tier across machines without coordination.

The tier catalogue and the ``repro-ci-report/1`` document live in
:mod:`repro.harness.tiers`; the ``repro ci`` CLI verb drives both.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import subprocess
import sys
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Repository root (src/repro/harness/parallel.py -> up four levels).
REPO_ROOT = os.path.dirname(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
)

#: Statuses that count as success for gating purposes.
OK_STATUSES = ("ok", "skipped")


def stable_digest(*parts: object) -> str:
    """16-hex digest of the parts' canonical text (no wall-clock)."""
    text = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(value: object) -> object:
    """The one form a fingerprint takes: floats rounded to 6 places,
    mappings as key-sorted pairs, sequences as tuples, and a nested
    :class:`Fingerprinted` by its own ``fingerprint()``."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return tuple(sorted((key, canonical(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, Fingerprinted):
        return value.fingerprint()
    return value


class Fingerprinted:
    """A dataclass whose deterministic identity is its own fields:
    ``fingerprint()`` is every field, in declaration order, in
    :func:`canonical` form — except the ones ``unfingerprinted`` names
    (a trace, a telemetry snapshot: what a run reports beside its
    identity)."""

    unfingerprinted: Tuple[str, ...] = ()

    def fingerprint(self) -> Tuple:
        return tuple(
            canonical(getattr(self, f.name))
            for f in fields(self)
            if f.name not in self.unfingerprinted
        )


@dataclass(frozen=True)
class WorkUnit:
    """One independent, deterministic, crash-isolated work item."""

    kind: str
    unit_id: str
    params: tuple  # sorted (key, value) pairs; values JSON-compatible
    timeout: float
    retries: int = 1

    @classmethod
    def make(
        cls,
        kind: str,
        unit_id: str,
        params: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
    ) -> "WorkUnit":
        """A unit of a :data:`UNIT_KINDS` kind (``ValueError`` for any
        other), timed out at the kind's default unless ``timeout``."""
        if kind not in UNIT_KINDS:
            raise ValueError(
                f"unknown unit kind {kind!r}; known: {', '.join(UNIT_KINDS)}"
            )
        return cls(
            kind=kind,
            unit_id=unit_id,
            params=tuple(sorted((params or {}).items())),
            timeout=UNIT_KINDS[kind].timeout if timeout is None else timeout,
            retries=retries,
        )

    @property
    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "unit_id": self.unit_id,
            "params": self.param_dict,
            "timeout": self.timeout,
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkUnit":
        return cls.make(
            kind=str(data["kind"]),
            unit_id=str(data["unit_id"]),
            params=dict(data.get("params", {})),
            timeout=float(data["timeout"]) if "timeout" in data else None,
            retries=int(data.get("retries", 1)),
        )


@dataclass
class UnitResult:
    """Outcome of one unit, merged deterministically by ``unit_id``."""

    unit_id: str
    kind: str
    status: str  # ok | failed | error | crashed | timeout | skipped
    attempts: int = 1
    wall_seconds: float = 0.0
    fingerprint: str = ""
    detail: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES

    def to_record(self, unit: Optional[WorkUnit] = None) -> Dict[str, object]:
        """JSON record for the ``repro-ci-report/1`` document."""
        record: Dict[str, object] = {
            "unit_id": self.unit_id,
            "kind": self.kind,
            "status": self.status,
            "attempts": self.attempts,
            "wall_seconds": round(self.wall_seconds, 3),
            "fingerprint": self.fingerprint,
            "detail": list(self.detail),
        }
        if unit is not None:
            record["params"] = unit.param_dict
            record["timeout"] = unit.timeout
        return record


# -- unit executors ---------------------------------------------------------
#
# Each executor takes the unit's parameter dict and returns a payload:
# {"status", "fingerprint", "detail", "metrics"}.  Executors run inside
# the worker process; anything they raise is contained as "error".


def _subprocess_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _execute_cell(
    kind: str, runner: str, params: Dict[str, object]
) -> Dict[str, object]:
    """Any simulation cell: ``runner`` (a dotted ``module.function``,
    imported here because ``baseline_cell`` imports this module) is
    called with the unit's params and returns a result that states its
    own verdict — ``findings()`` (empty when clean), ``fingerprint()``
    and the ``metrics`` it reports."""
    module, name = runner.rsplit(".", 1)
    params.pop("attempt", None)
    result = getattr(importlib.import_module(module), name)(**params)
    findings = result.findings()
    return {
        "status": "failed" if findings else "ok",
        "fingerprint": stable_digest(kind, result.fingerprint()),
        "detail": findings,
        "metrics": result.metrics,
    }


def _execute_explore(params: Dict[str, object]) -> Dict[str, object]:
    from repro.explore.engine import explore
    from repro.explore.scenarios import get_scenario, scenario_options

    scenario = get_scenario(str(params["scenario"]))
    options = scenario_options(
        scenario,
        max_decisions=int(params["depth"]),
        max_alternatives=int(params.get("max_alternatives", 4)),
        drop_budget=int(params.get("drop_budget", 1)),
    )
    result = explore(scenario, options)
    if result.counterexample is not None:
        detail = ["counterexample: " + result.counterexample.summary()]
    elif not result.exhausted:
        detail = ["exploration did not exhaust its bounded space"]
    else:
        detail = []
    status = "failed" if detail else "ok"
    stats = result.stats
    return {
        "status": status,
        "fingerprint": stable_digest(
            "explore",
            scenario.name,
            params["depth"],
            result.visited_digest,
            stats.runs,
            stats.states_visited,
            stats.states_pruned,
            status,
        ),
        "detail": detail,
        "metrics": {
            "ci.explore.cells": 1,
            "ci.explore.runs": stats.runs,
            "ci.explore.simulations": stats.simulations,
            "ci.explore.states_visited": stats.states_visited,
            "ci.explore.states_pruned": stats.states_pruned,
        },
    }


def _execute_explore_deep(params: Dict[str, object]) -> Dict[str, object]:
    """A budgeted backward search from one goal predicate.

    ``ok`` means the guided search exhausted (or spent) its candidate
    budget without confirming the predicate by forward replay; a
    confirmed counterexample is a real, replayable protocol violation
    and fails the unit.  Backward stats surface as
    ``ci.explore.backward.*`` metrics in the merged report.
    """
    from repro.explore.backward import backward_search
    from repro.explore.predicates import get_predicate
    from repro.explore.scenarios import get_scenario

    scenario = get_scenario(str(params["scenario"]))
    names = params.get("predicates")
    predicates = (
        [get_predicate(str(name)) for name in names] if names else None
    )
    result = backward_search(
        scenario,
        predicates,
        max_deviations=int(params.get("max_deviations", 3)),
        budget=int(params.get("budget", 250)),
        limit=int(params.get("limit", 64)),
        seed=int(params.get("seed", 0)),
    )
    detail = ["counterexample: " + c.summary() for c in result.counterexamples]
    status = "failed" if detail else "ok"
    stats = result.stats
    schedules = tuple(
        (c.predicate, tuple(c.schedule)) for c in result.counterexamples
    )
    return {
        "status": status,
        "fingerprint": stable_digest(
            "explore-deep",
            scenario.name,
            params.get("predicates") or "all",
            result.seed,
            stats.candidates_tried,
            stats.candidates_confirmed,
            stats.candidates_rejected,
            stats.max_depth_reached,
            schedules,
            status,
        ),
        "detail": detail,
        "metrics": {
            "ci.explore.backward.cells": 1,
            "ci.explore.backward.predicates_tried": stats.predicates_tried,
            "ci.explore.backward.candidates_tried": stats.candidates_tried,
            "ci.explore.backward.candidates_confirmed": (
                stats.candidates_confirmed
            ),
            "ci.explore.backward.candidates_rejected": (
                stats.candidates_rejected
            ),
            "ci.explore.backward.max_depth": stats.max_depth_reached,
            "ci.explore.backward.runs": stats.runs,
        },
    }


def _execute_bench(params: Dict[str, object]) -> Dict[str, object]:
    if REPO_ROOT not in sys.path:
        sys.path.insert(0, REPO_ROOT)
    from benchmarks.perf.suite import (
        BENCHMARKS,
        check_regressions,
        load_artifact,
        load_baseline,
        write_artifact,
    )

    name = str(params["name"])
    quick = bool(params.get("quick", True))
    output_dir = params.get("output_dir")
    output_dir = str(output_dir) if output_dir else None
    try:
        metrics = BENCHMARKS[name](quick)
    except AssertionError as exc:
        return {
            "status": "failed",
            "fingerprint": stable_digest("bench", name, "failed"),
            "detail": [str(exc)],
            "metrics": {"ci.bench.failed": 1},
        }
    baseline = load_artifact(name, output_dir) or load_baseline(name)
    failures = check_regressions(baseline, metrics)
    write_artifact(name, metrics, quick, output_dir)
    status = "failed" if failures else "ok"
    merged: Dict[str, float] = {"ci.bench.modules": 1}
    for key, metric in metrics.items():
        if metric.get("gated", False):
            merged[f"ci.bench.{name}.{key}"] = float(metric["value"])
    return {
        "status": status,
        # Metric *names* and the gate verdict are deterministic; raw
        # wall-clock values are not, and stay out of the fingerprint.
        "fingerprint": stable_digest(
            "bench", name, sorted(metrics), status
        ),
        "detail": [f"REGRESSION {line}" for line in failures],
        "metrics": merged,
    }


def _execute_pytest(params: Dict[str, object]) -> Dict[str, object]:
    """A pytest run over ``paths``.  Experiment tables it publishes go to
    a fresh directory (``REPRO_RESULTS_DIR``, read by
    ``benchmarks/conftest.py``), never over the committed copies."""
    paths = [str(p) for p in params["paths"]]
    args = [str(a) for a in params.get("args", [])]
    env = _subprocess_env()
    with tempfile.TemporaryDirectory() as scratch:
        env["REPRO_RESULTS_DIR"] = scratch
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", *args, *paths],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    ok = proc.returncode == 0
    status = "ok" if ok else "failed"
    return {
        "status": status,
        "fingerprint": stable_digest("pytest", tuple(paths), status),
        "detail": [] if ok else proc.stdout.strip().splitlines()[-20:],
        "metrics": {
            "ci.pytest.groups": 1,
            "ci.pytest.failed_groups": 0 if ok else 1,
        },
    }


def _execute_lint(params: Dict[str, object]) -> Dict[str, object]:
    from repro.harness.lint import run_lint

    ok, tool, lines = run_lint()
    return {
        "status": "ok" if ok else "failed",
        "fingerprint": stable_digest("lint", "ok" if ok else "failed"),
        "detail": [f"tool: {tool}"] + lines[:50],
        "metrics": {"ci.lint.findings": len(lines)},
    }


#: Coverage floors enforced by the ``coverage`` unit, as documented in
#: docs/TESTING.md and gated by the tier1 CI job.
COVERAGE_FLOORS: Dict[str, float] = {
    "src/repro/baselines": 85.0,
    "src/repro/core": 85.0,
    "src/repro/explore": 80.0,
    "src/repro/telemetry": 85.0,
}


def _execute_coverage(params: Dict[str, object]) -> Dict[str, object]:
    try:
        import coverage  # noqa: F401
    except ImportError:
        return {
            "status": "skipped",
            "fingerprint": stable_digest("coverage", "skipped"),
            "detail": ["coverage.py is not installed; floors not measured"],
            "metrics": {},
        }
    floors = {
        str(k): float(v)
        for k, v in (params.get("floors") or COVERAGE_FLOORS).items()
    }
    env = _subprocess_env()
    env["COVERAGE_FILE"] = os.path.join(REPO_ROOT, ".coverage.ci")
    run = subprocess.run(
        [sys.executable, "-m", "coverage", "run", "-m", "pytest", "-q"],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if run.returncode != 0:
        return {
            "status": "failed",
            "fingerprint": stable_digest("coverage", "pytest-failed"),
            "detail": run.stdout.strip().splitlines()[-20:],
            "metrics": {},
        }
    import json as _json

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = handle.name
    try:
        report = subprocess.run(
            [sys.executable, "-m", "coverage", "json", "-o", json_path],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if report.returncode != 0:
            return {
                "status": "error",
                "fingerprint": stable_digest("coverage", "report-failed"),
                "detail": report.stdout.strip().splitlines()[-10:],
                "metrics": {},
            }
        with open(json_path) as fh:
            data = _json.load(fh)
    finally:
        os.unlink(json_path)
        if os.path.exists(env["COVERAGE_FILE"]):
            os.unlink(env["COVERAGE_FILE"])
    detail: List[str] = []
    metrics: Dict[str, float] = {}
    status = "ok"
    for prefix, floor in sorted(floors.items()):
        covered = statements = 0
        for file_name, file_data in data.get("files", {}).items():
            normalized = file_name.replace(os.sep, "/")
            if normalized.startswith(prefix):
                summary = file_data["summary"]
                covered += summary["covered_lines"]
                statements += summary["num_statements"]
        pct = 100.0 * covered / statements if statements else 0.0
        metrics[f"ci.coverage.{prefix}.percent"] = round(pct, 1)
        verdict = "ok" if pct >= floor else "BELOW FLOOR"
        detail.append(f"{prefix}: {pct:.1f}% (floor {floor:.0f}%) {verdict}")
        if pct < floor:
            status = "failed"
    return {
        "status": status,
        "fingerprint": stable_digest(
            "coverage",
            status,
            tuple(sorted((k, round(v, 1)) for k, v in metrics.items())),
        ),
        "detail": detail,
        "metrics": metrics,
    }


def _execute_selftest(params: Dict[str, object]) -> Dict[str, object]:
    """Synthetic unit used by the orchestration tests themselves."""
    action = str(params.get("action", "ok"))
    attempt = int(params.get("attempt", 1))
    if action == "crash" or (action == "crash_once" and attempt == 1):
        os._exit(13)
    if action == "hang" or (action == "hang_once" and attempt == 1):
        time.sleep(float(params.get("hang_seconds", 3600.0)))
    if action == "error":
        raise RuntimeError("selftest asked to raise")
    sleep = float(params.get("sleep", 0.0))
    if sleep:
        time.sleep(sleep)
    status = "failed" if action == "fail" else "ok"
    return {
        "status": status,
        "fingerprint": stable_digest(
            "selftest", params.get("token", ""), action, status
        ),
        "detail": [],
        "metrics": {"ci.selftest.units": 1},
    }


class UnitKind(NamedTuple):
    """One row of :data:`UNIT_KINDS`."""

    execute: Callable[[Dict[str, object]], Dict[str, object]]
    #: Default wall-clock timeout (s).  Generous: a hang detector, not
    #: a perf gate (perf gates compare sim-time and paired-ratio
    #: quantities only — see docs/PERFORMANCE.md).
    timeout: float


def _cell(kind: str, runner: str, timeout: float) -> UnitKind:
    return UnitKind(partial(_execute_cell, kind, runner), timeout)


#: Every unit kind: what runs it and how long it may take.
UNIT_KINDS: Dict[str, UnitKind] = {
    "chaos": _cell("chaos", "repro.harness.campaign.run_scenario", 120.0),
    "baseline-compare": _cell(
        "baseline-compare",
        "repro.harness.baseline_cell.run_baseline_compare_cell",
        600.0,
    ),
    "migration": _cell(
        "migration", "repro.harness.migration_cell.run_migration_cell", 300.0
    ),
    "workload": _cell("workload", "repro.workloads.cell.run_workload_cell", 900.0),
    "explore": UnitKind(_execute_explore, 600.0),
    "explore-deep": UnitKind(_execute_explore_deep, 900.0),
    "bench": UnitKind(_execute_bench, 1800.0),
    "pytest": UnitKind(_execute_pytest, 1800.0),
    "lint": UnitKind(_execute_lint, 600.0),
    "coverage": UnitKind(_execute_coverage, 2400.0),
    "selftest": UnitKind(_execute_selftest, 60.0),
}


def execute_unit(unit_dict: Dict[str, object]) -> Dict[str, object]:
    """Dispatch one unit; exceptions are contained as ``error``."""
    kind = str(unit_dict["kind"])
    try:
        return UNIT_KINDS[kind].execute(dict(unit_dict.get("params", {})))
    except Exception:
        return {
            "status": "error",
            "fingerprint": stable_digest("error", kind, unit_dict["unit_id"]),
            "detail": traceback.format_exc().strip().splitlines()[-15:],
            "metrics": {},
        }


def _child_main(unit_dict: Dict[str, object], conn) -> None:
    """Process body: run the unit, send the payload, exit."""
    started = time.perf_counter()
    payload = execute_unit(unit_dict)
    payload["wall_seconds"] = time.perf_counter() - started
    try:
        conn.send(payload)
        conn.close()
    except (BrokenPipeError, OSError):  # parent gave up (timeout kill race)
        pass


# -- sharding ---------------------------------------------------------------


def shard_units(
    units: Sequence[WorkUnit], index: int, count: int
) -> List[WorkUnit]:
    """Deterministic shard ``index`` of ``count``: round-robin over the
    sorted ``unit_id`` order.  Shards are disjoint and their union is
    complete, independent of the input order."""
    if count < 1:
        raise ValueError("shard count must be >= 1")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} outside 0..{count - 1}")
    ordered = sorted(units, key=lambda u: u.unit_id)
    return [u for j, u in enumerate(ordered) if j % count == index]


# -- the fan-out engine -----------------------------------------------------


@dataclass
class _Running:
    process: object
    conn: object
    index: int
    started: float


def _start_worker(ctx, unit: WorkUnit, index: int, attempt: int) -> _Running:
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    unit_dict = unit.to_dict()
    # The engine injects the attempt number (1-based) so retry-aware
    # selftest units can exercise the accounting; executors must keep
    # it out of fingerprints.
    unit_dict["params"] = dict(unit_dict["params"], attempt=attempt)
    process = ctx.Process(
        target=_child_main, args=(unit_dict, child_conn), daemon=True
    )
    process.start()
    child_conn.close()
    return _Running(
        process=process, conn=parent_conn, index=index, started=time.monotonic()
    )


def _reported(conn) -> Optional[Dict[str, object]]:
    """The payload waiting in a worker's pipe, if there is one."""
    if conn.poll(0):
        try:
            return conn.recv()
        except (EOFError, OSError):
            pass
    return None


def run_units(
    units: Sequence[WorkUnit],
    workers: int = 1,
    progress: Optional[Callable[[WorkUnit, UnitResult], None]] = None,
    poll_interval: float = 0.02,
) -> List[UnitResult]:
    """Run every unit; return results sorted by ``unit_id``.

    ``workers >= 1`` uses one child process per unit with at most
    ``workers`` concurrent children (crash/timeout isolation);
    ``workers == 0`` runs units inline in this process — no isolation,
    used by ``--replay-shard`` and the tests.
    """
    ordered = sorted(units, key=lambda u: u.unit_id)
    seen = [u.unit_id for u in ordered]
    if len(set(seen)) != len(seen):
        raise ValueError("duplicate unit_id in work list")
    if workers == 0:
        results = []
        for unit in ordered:
            started = time.perf_counter()
            payload = execute_unit(dict(unit.to_dict(), params=dict(unit.param_dict, attempt=1)))
            payload.setdefault("wall_seconds", time.perf_counter() - started)
            result = _payload_to_result(unit, payload, attempts=1)
            results.append(result)
            if progress is not None:
                progress(unit, result)
        return results

    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    pending = deque(range(len(ordered)))
    attempts = [0] * len(ordered)
    done: Dict[int, UnitResult] = {}
    running: List[_Running] = []

    def finish(index: int, payload: Dict[str, object]) -> None:
        unit = ordered[index]
        result = _payload_to_result(unit, payload, attempts=attempts[index])
        done[index] = result
        if progress is not None:
            progress(unit, result)

    def infra_failure(handle: _Running, status: str, note: str) -> None:
        index = handle.index
        unit = ordered[index]
        if attempts[index] <= unit.retries:
            pending.append(index)  # retry
            return
        finish(
            index,
            {
                "status": status,
                "fingerprint": stable_digest(status, unit.unit_id),
                "detail": [note],
                "metrics": {},
                "wall_seconds": time.monotonic() - handle.started,
            },
        )

    try:
        while pending or running:
            while pending and len(running) < max(1, workers):
                index = pending.popleft()
                attempts[index] += 1
                running.append(
                    _start_worker(ctx, ordered[index], index, attempts[index])
                )
            made_progress = False
            for handle in list(running):
                payload = _reported(handle.conn)
                exited = payload is None and not handle.process.is_alive()
                if exited:
                    # A worker that reported and exited between the two
                    # tests above left its result in the pipe.
                    payload = _reported(handle.conn)
                if payload is not None:
                    handle.process.join()
                    handle.conn.close()
                    running.remove(handle)
                    finish(handle.index, payload)
                    made_progress = True
                elif exited:
                    handle.conn.close()
                    running.remove(handle)
                    infra_failure(
                        handle,
                        "crashed",
                        f"worker exited (code {handle.process.exitcode}) "
                        "without reporting a result",
                    )
                    made_progress = True
                elif (
                    time.monotonic() - handle.started
                    > ordered[handle.index].timeout
                ):
                    handle.process.terminate()
                    handle.process.join(1.0)
                    if handle.process.is_alive():
                        handle.process.kill()
                        handle.process.join(1.0)
                    handle.conn.close()
                    running.remove(handle)
                    infra_failure(
                        handle,
                        "timeout",
                        f"unit exceeded its {ordered[handle.index].timeout:g}s "
                        "timeout and was killed",
                    )
                    made_progress = True
            if not made_progress:
                time.sleep(poll_interval)
    finally:
        for handle in running:
            handle.process.terminate()
            handle.process.join(1.0)
            if handle.process.is_alive():
                handle.process.kill()

    return [done[i] for i in sorted(done, key=lambda i: ordered[i].unit_id)]


def _payload_to_result(
    unit: WorkUnit, payload: Dict[str, object], attempts: int
) -> UnitResult:
    return UnitResult(
        unit_id=unit.unit_id,
        kind=unit.kind,
        status=str(payload.get("status", "error")),
        attempts=attempts,
        wall_seconds=float(payload.get("wall_seconds", 0.0)),
        fingerprint=str(payload.get("fingerprint", "")),
        detail=[str(line) for line in payload.get("detail", [])],
        metrics={
            str(k): v for k, v in dict(payload.get("metrics", {})).items()
        },
    )


# -- deterministic merge ----------------------------------------------------


def merged_fingerprint(results: Sequence[UnitResult]) -> str:
    """Digest of the sorted ``unit_id:fingerprint`` pairs — identical
    for any worker count, completion order, or shard recombination."""
    pairs = sorted(f"{r.unit_id}:{r.fingerprint}" for r in results)
    return hashlib.sha256("\n".join(pairs).encode()).hexdigest()


def merge_metrics(results: Sequence[UnitResult]) -> Dict[str, float]:
    """Key-wise sum of every unit's metrics snapshot."""
    from repro.telemetry.registry import MetricsRegistry

    ordered = sorted(results, key=lambda r: r.unit_id)
    return MetricsRegistry.merge(*(r.metrics for r in ordered))
