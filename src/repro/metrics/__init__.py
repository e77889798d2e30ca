"""Evaluation metrics for the CBT reproduction.

Each module maps to one axis of the paper's evaluation:

* :mod:`repro.metrics.tree` — total tree cost (E3);
* :mod:`repro.metrics.delay` — path delay and stretch vs unicast
  shortest paths (E4);
* :mod:`repro.metrics.concentration` — per-link load and traffic
  concentration under multiple senders (E5);
* :mod:`repro.metrics.state` — router state census, CBT vs
  source-based schemes (E1);
* :mod:`repro.metrics.overhead` — control and data transmissions as
  the packet trace saw them (E2); per-type control counts are the
  registry's (``ControlStats``).
"""

from repro.metrics.concentration import link_loads, traffic_concentration
from repro.metrics.delay import delay_stretch, tree_delays
from repro.metrics.latency import (
    delivery_latencies,
    delivery_latency,
    latency_summary,
)
from repro.metrics.overhead import trace_overhead
from repro.metrics.state import StateCensus, cbt_state_census, dvmrp_state_census
from repro.metrics.tree import tree_cost, tree_cost_ratio

__all__ = [
    "StateCensus",
    "cbt_state_census",
    "delay_stretch",
    "delivery_latencies",
    "delivery_latency",
    "dvmrp_state_census",
    "latency_summary",
    "link_loads",
    "traffic_concentration",
    "trace_overhead",
    "tree_cost",
    "tree_cost_ratio",
    "tree_delays",
]
