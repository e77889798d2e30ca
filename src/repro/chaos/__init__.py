"""Deterministic chaos campaigns for the CBT reproduction.

Three layers, composed by the ``repro chaos`` CLI verb:

* fault injectors (:mod:`repro.netsim.faults`) — seeded loss/jitter
  processes and timed link/node fault events, all replayable;
* the scenario catalogue (:mod:`repro.chaos.scenarios`) — named,
  seed-parameterised fault schedules aimed at a standing tree;
* the campaign runner (:mod:`repro.harness.campaign`) — sweeps
  scenarios × seeds × topologies to quiescence under the always-on
  invariant auditor, recording recovery latency, control cost, and
  delivery continuity.
"""

from repro.chaos.scenarios import SCENARIOS
from repro.harness.campaign import TOPOLOGIES, run_campaign

__all__ = ["SCENARIOS", "TOPOLOGIES", "run_campaign"]
