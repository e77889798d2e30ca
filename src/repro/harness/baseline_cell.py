"""CBT vs DVMRP vs HPIM-DM under *identical* fault schedules.

The chaos campaign (`repro.harness.campaign`) measures CBT's recovery
latency, control cost, and delivery continuity per fault scenario.
This module turns each of those cells into a *comparison* cell: every
row of :data:`repro.harness.campaign.LEGS` goes through the same leg
run (:func:`~repro.harness.campaign.leg_run`) on a fresh copy of the
topology.  The first row (CBT, audited like every CBT leg) derives the
fault schedule — the scenario builders consult its standing tree — and
every other row replays it, time-shifted, so all protocols see the
same faults at the same offsets from their own fault-start instant.  A
new protocol is one row; nothing here changes.

Replayability is enforced, not assumed: schedules that carry
protocol-level callables (the migration scenarios) are rejected, and
every leg's schedule is reduced to a relative-time signature of what
its events do, whose digest must match the first leg's.  The digest
travels in the cell fingerprint, so the CI byte-identity audit also
proves the schedules never drifted apart.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

from repro.harness.campaign import LEGS, CellResult, CellRun, ProtocolOutcome, leg_run
from repro.harness.parallel import stable_digest
from repro.netsim.engine import collector_paused
from repro.netsim.faults import FaultSchedule, fired_faults

#: Chaos scenarios that replay onto non-CBT protocols: everything in
#: the catalogue except the migration scenarios, whose schedules embed
#: CBT-protocol callables (checked again, structurally, at run time).
BASELINE_SCENARIOS: Tuple[str, ...] = (
    "lossy_links",
    "link_flap",
    "partition",
    "blackout",
    "router_crash",
    "core_crash",
    "jitter_storm",
)

#: The quick (scenario, topology) cells run by the smoke/chaos/full CI
#: tiers; the nightly tier runs the full BASELINE_SCENARIOS × topology
#: matrix instead.
QUICK_BASELINE_CELLS: Tuple[Tuple[str, str], ...] = (
    ("link_flap", "figure1"),
    ("router_crash", "figure1"),
)


@dataclass
class BaselineCompareResult(CellResult):
    """One (scenario, topology, seed) comparison across all protocols."""

    ci_name = "baseline"

    scenario: str
    topology: str
    seed: int
    #: Digest of the relative-time fault signature, identical across
    #: legs by construction (asserted during the run).
    schedule_digest: str
    #: (relative sim time, description) fault actions, first-leg view.
    faults: List[Tuple[float, str]] = field(default_factory=list)
    #: One per :data:`~repro.harness.campaign.LEGS` row, in table order.
    outcomes: List[ProtocolOutcome] = field(default_factory=list)

    def findings(self) -> List[str]:
        """Why this cell is not clean: one line per protocol leg that
        did not recover or ended with findings (empty when clean)."""
        return [
            f"{o.protocol}: recovered={o.recovered} " + "; ".join(o.findings[:5])
            for o in self.outcomes
            if not o.recovered or o.findings
        ]

    @property
    def telemetry(self) -> Dict[str, float]:
        """Per protocol leg: control cost, and recovery time if any."""
        metrics: Dict[str, float] = {}
        for o in self.outcomes:
            if o.recovered:
                metrics[f"ci.baseline.{o.protocol}.recovery_time"] = o.recovery_time
            metrics[f"ci.baseline.{o.protocol}.control_cost"] = o.control_cost
        return metrics


def _relative_signature(schedule: FaultSchedule, base: float) -> Tuple:
    """Protocol-independent identity of a schedule: per event, its kind
    and each action's description and time relative to ``base``, read
    from ``actions`` (never fired, so no network), never field names.
    A burst's seed is left out: it is ``derive_seed(cell seed, link)``,
    fixed by the digest's cell seed and the described link, and
    :func:`_replay` copies it.  Rejects schedules that cannot replay
    onto another protocol (callable-carrying events)."""
    signature = []
    for event in schedule.events:
        for key, value in vars(event).items():
            if callable(value):
                raise ValueError(
                    f"{type(event).__name__}.{key} is a callable: this "
                    f"schedule is CBT-specific and cannot replay onto "
                    f"other protocols"
                )
        signature.append(
            (
                type(event).__name__,
                tuple(
                    (round(at - base, 6), description)
                    for at, description, _ in event.actions(None)
                ),
            )
        )
    return tuple(sorted(signature))


def _replay(schedule: FaultSchedule, base: float, run: CellRun) -> FaultSchedule:
    """The same events, re-timed so their offsets from ``run.base``
    equal the originals' offsets from ``base``."""
    shifted = FaultSchedule()
    for event in schedule.events:
        shifted.add(dataclasses.replace(event, at=event.at - base + run.base))
    return shifted


@collector_paused()  # one pause over every leg
def run_baseline_compare_cell(
    scenario: str, topology: str = "figure1", seed: int = 0
) -> BaselineCompareResult:
    """Run one comparison cell: every :data:`LEGS` row in table order,
    the first deriving the schedule and the rest replaying it, all
    measured identically."""
    from repro.chaos.scenarios import SCENARIOS

    if scenario not in BASELINE_SCENARIOS:
        raise ValueError(
            f"scenario {scenario!r} is not replayable across protocols; "
            f"choose from {', '.join(BASELINE_SCENARIOS)}"
        )
    result = BaselineCompareResult(scenario, topology, seed, schedule_digest="")
    plan = SCENARIOS[scenario]
    for name in LEGS:
        with leg_run(name, topology, seed, plan) as run:
            result.outcomes.append(run.outcome)
            fired = fired_faults(run.network)
        signature = _relative_signature(run.schedule, run.base)
        digest = stable_digest(scenario, topology, seed, signature)
        if not result.schedule_digest:
            result.schedule_digest = digest
            result.faults = [
                (round(at - run.base, 6), what) for at, what in fired
            ]
            plan = partial(_replay, run.schedule, run.base)
        elif digest != result.schedule_digest:
            raise AssertionError(
                f"replayed schedule drifted on the {name} leg: "
                f"{digest} != {result.schedule_digest}"
            )
    return result
