"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table/figure of the evaluation (see
DESIGN.md's experiment index).  Results are printed and also written
to ``benchmarks/results/<exp_id>.txt`` so EXPERIMENTS.md can cite them.

Set ``REPRO_RESULTS_DIR`` to redirect the text artifacts (CI sets it
to a gitignored directory so benchmark runs never dirty the tree; the
committed copies under ``benchmarks/results/`` are refreshed
deliberately, not as a side effect).  A redirected run is a check: at
session end every table it wrote must equal its committed copy byte
for byte, and RESULTS.md must be what ``python -m repro report``
builds from the committed tables, or the run fails.
"""

from __future__ import annotations

import os
from itertools import zip_longest
from typing import Iterable, List

import pytest

COMMITTED_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_MD = os.path.join(os.path.dirname(os.path.dirname(__file__)), "RESULTS.md")
RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR", COMMITTED_DIR)

#: Experiment ids published in this session.
_published: List[str] = []


def publish(exp_id: str, text: str) -> None:
    """Print a result table and persist it under the results dir."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{exp_id}.txt"), "w") as f:
        f.write(text + "\n")
    _published.append(exp_id)


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _first_difference(fresh: bytes, old: bytes) -> str:
    """Where a regenerated table first parts from its committed copy."""
    lines = zip_longest(
        fresh.decode(errors="replace").splitlines(),
        old.decode(errors="replace").splitlines(),
        fillvalue="<end>",
    )
    for number, (new_line, old_line) in enumerate(lines, 1):
        if new_line != old_line:
            return f"line {number}: {new_line!r} != committed {old_line!r}"
    return "line endings differ"


def results_drift(
    results_dir: str,
    exp_ids: Iterable[str],
    committed_dir: str = COMMITTED_DIR,
    results_md: str = RESULTS_MD,
) -> List[str]:
    """One line per table in ``exp_ids`` whose copy under
    ``results_dir`` differs from the committed one (naming the first
    differing line), and one if ``results_md`` is not the report built
    from ``committed_dir``."""
    from repro.harness.report import build_report

    drift = []
    for exp_id in sorted(set(exp_ids)):
        name = f"{exp_id}.txt"
        committed = os.path.join(committed_dir, name)
        if not os.path.exists(committed):
            drift.append(f"{name}: no committed copy in {committed_dir}")
            continue
        fresh, old = _read(os.path.join(results_dir, name)), _read(committed)
        if fresh != old:
            drift.append(f"{name}: {_first_difference(fresh, old)}")
    if _read(results_md) != (build_report(committed_dir) + "\n").encode():
        drift.append(
            f"{os.path.basename(results_md)}: differs from "
            "`python -m repro report` over the committed tables"
        )
    return drift


def pytest_sessionfinish(session, exitstatus) -> None:
    """Fail a redirected run whose tables drift from the committed ones."""
    if not _published or os.path.abspath(RESULTS_DIR) == os.path.abspath(
        COMMITTED_DIR
    ):
        return
    drift = results_drift(RESULTS_DIR, _published)
    if drift:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        reporter.write("\n")
        reporter.write_sep("=", "experiment tables drift from benchmarks/results/")
        for line in drift:
            reporter.write_line(f"RESULTS DRIFT {line}")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
