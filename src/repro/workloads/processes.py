"""Session-based churn processes with per-host deterministic streams.

Both generators model each host as an independent ON/OFF renewal
process: the host waits OFF (not a member), joins, stays ON for the
session, leaves, and repeats.  Joins and leaves therefore pair up
per host by construction — no leave precedes its join, sessions never
overlap, and every session still open at the drain time is closed
there.

* :func:`poisson_churn` — exponential OFF gaps and exponential
  session holds: the memoryless baseline of "Analysis of Performance
  of Dynamic Multicast Routing Algorithms" (superposed over hosts,
  aggregate arrivals are Poisson).
* :func:`pareto_onoff_churn` — Pareto OFF and ON durations
  (tail index :data:`PARETO_SHAPE` < 2: infinite variance): the heavy-tailed on/off
  construction whose superposition is self-similar (Willinger et al.),
  i.e. burstiness persists across time scales instead of smoothing
  out.

Determinism: each host draws from its own
``random.Random(derive_seed(seed, label, host))`` stream, and the
merged schedule is sorted by ``(time, host, action)`` — so the result
is a pure function of ``(hosts-as-a-set, parameters, seed)`` and is
insensitive to host-iteration order (pinned by the property suite in
``tests/test_workloads_properties.py``).
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

from repro.harness.workload import ChurnEvent, ChurnSchedule
from repro.netsim.faults import derive_seed

#: The Pareto tail index alpha of :func:`pareto_onoff_churn`: the classic
#: self-similar construction's ``1 < alpha < 2`` (finite mean, infinite
#: variance).
PARETO_SHAPE = 1.5


def _session_churn(
    hosts: Sequence[str],
    duration: float,
    seed: int,
    start: float,
    label: str,
    sample_off: Callable[[random.Random], float],
    sample_on: Callable[[random.Random], float],
) -> ChurnSchedule:
    """Merge one ON/OFF renewal stream per host into one schedule."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    end = start + duration
    events: List[ChurnEvent] = []
    for host in sorted(set(hosts)):
        rng = random.Random(derive_seed(seed, label, host))
        t = start
        while True:
            t += sample_off(rng)
            if t >= end:
                break
            join_at = t
            t += sample_on(rng)
            leave_at = min(t, end)  # close sessions still open at drain
            events.append(ChurnEvent(time=join_at, host=host, action="join"))
            events.append(ChurnEvent(time=leave_at, host=host, action="leave"))
            if t >= end:
                break
    events.sort(key=lambda e: (e.time, e.host, e.action))
    return ChurnSchedule(events=events)


def poisson_churn(
    hosts: Sequence[str],
    duration: float,
    mean_off: float = 10.0,
    mean_hold: float = 20.0,
    seed: int = 0,
    start: float = 0.0,
) -> ChurnSchedule:
    """Poisson session churn: exponential OFF gaps, exponential holds.

    ``mean_off`` is each host's mean idle time between sessions and
    ``mean_hold`` the mean session length, both in sim seconds.  Each
    host joins on average every ``mean_off + mean_hold`` seconds, so
    the aggregate join arrival process over *n* hosts is (superposed)
    Poisson with rate ``n / (mean_off + mean_hold)``.
    """
    if mean_off <= 0 or mean_hold <= 0:
        raise ValueError(
            f"mean_off and mean_hold must be positive, got "
            f"{mean_off}/{mean_hold}"
        )
    return _session_churn(
        hosts,
        duration,
        seed,
        start,
        "poisson",
        sample_off=lambda rng: rng.expovariate(1.0 / mean_off),
        sample_on=lambda rng: rng.expovariate(1.0 / mean_hold),
    )


def pareto_onoff_churn(
    hosts: Sequence[str],
    duration: float,
    mean_off: float = 10.0,
    mean_hold: float = 20.0,
    seed: int = 0,
    start: float = 0.0,
) -> ChurnSchedule:
    """Self-similar churn: Pareto OFF gaps and Pareto session holds.

    The tail index is :data:`PARETO_SHAPE`, which makes the superposed
    membership process bursty at every time scale.  The scale parameter
    is chosen so the mean OFF / ON durations equal ``mean_off`` /
    ``mean_hold``, making schedules directly comparable with
    :func:`poisson_churn` at identical parameters.
    """
    if mean_off <= 0 or mean_hold <= 0:
        raise ValueError(
            f"mean_off and mean_hold must be positive, got "
            f"{mean_off}/{mean_hold}"
        )
    # random.Random.paretovariate(a) >= 1 with mean a / (a - 1); scale
    # by x_m = mean * (a - 1) / a so the sample mean is ``mean``.
    shape = PARETO_SHAPE
    scale_off = mean_off * (shape - 1.0) / shape
    scale_on = mean_hold * (shape - 1.0) / shape
    return _session_churn(
        hosts,
        duration,
        seed,
        start,
        "pareto",
        sample_off=lambda rng: scale_off * rng.paretovariate(shape),
        sample_on=lambda rng: scale_on * rng.paretovariate(shape),
    )
