"""Production-shaped traffic workloads (churn and flash crowds).

Generalises :mod:`repro.harness.workload` from uniform alternating
churn into a workload generator for production load shapes:

* :mod:`repro.workloads.processes` — Poisson and self-similar
  (Pareto on/off) join/leave session churn, one deterministic stream
  per host via :func:`repro.netsim.faults.derive_seed`;
* :mod:`repro.workloads.flashcrowd` — a bootcast-style flash crowd:
  a ramped arrival burst onto one cast, mid-stream joins, leave on
  completion, teardown when drained;
* :mod:`repro.workloads.probe` — the steady-state quality probe
  sampling tree cost, stretch, join-latency percentiles, and control
  overhead against modeled DVMRP/MOSPF baselines under the identical
  schedule;
* :mod:`repro.workloads.cell` — the deterministic CI cells behind the
  ``workload`` unit kind and the ``repro workload`` CLI verb.

See docs/WORKLOADS.md for the lifecycle and the comparison table.
"""
