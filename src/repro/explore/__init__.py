"""Systematic state-space exploration for the CBT simulator.

Bounded enumeration of message-delivery orders, control-message
drops, timer-tie orders and fault placements, with invariant +
convergence oracles, state-hash pruning, delta-debugging shrinking,
and replay-to-pytest export.  Entry points:

* :func:`repro.explore.engine.explore` — search a scenario's space;
* :mod:`repro.explore.scenarios` — the explorable scenario registry;
* :mod:`repro.explore.replay` — serialise / replay schedules;
* ``repro explore`` — the CLI verb wrapping all of the above.
"""

from repro.explore.engine import explore
from repro.explore.scenarios import get_scenario, scenario_options

__all__ = ["explore", "get_scenario", "scenario_options"]
