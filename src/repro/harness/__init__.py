"""Experiment harness: sweep running and table/series formatting.

Every benchmark builds an :class:`Experiment`, runs a parameter sweep,
and prints rows in the shape of the paper's tables/figures; the same
helpers feed EXPERIMENTS.md.
"""

from repro.harness.experiment import Experiment, SweepResult
from repro.harness.formatting import format_table
from repro.harness.scenarios import (
    build_cbt_group,
    build_dvmrp_group,
    pick_members,
    settle,
)

__all__ = [
    "Experiment",
    "SweepResult",
    "build_cbt_group",
    "build_dvmrp_group",
    "format_table",
    "pick_members",
    "settle",
]
