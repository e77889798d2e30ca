"""Property suite for the workload generators (ISSUE-9 satellite 1).

Four guarantees are pinned for both churn processes and the flash
crowd, across randomised host sets, parameters, and seeds:

* **determinism** — the same ``(hosts, parameters, seed)`` always
  yields the identical schedule, and schedules are insensitive to
  host-iteration order (a list, its reverse, and any shuffle generate
  byte-equal schedules).
* **pairing** — join/leave events are well-formed per host: no leave
  precedes its join, sessions never overlap, and every session still
  open at the drain time is closed there (the schedule ends with
  every host off the group).
* **process shape** — interarrival gaps match the requested process
  within tolerance: exponential OFF gaps average ``mean_off`` with a
  median near ``ln 2 * mean`` (≈ 0.693·mean), while Pareto(1.5) gaps
  share the mean but sit on a *lower* median (≈ 0.52·mean — the mass
  hides in the tail).  The median/mean discrimination is what
  separates the two processes at equal means.
* **validity** — every generated event carries a valid action (the
  construction-time validation added with this suite means a bad
  action cannot even be represented).
"""

from __future__ import annotations

import math
import random
import statistics

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False

from repro.harness.workload import VALID_ACTIONS
from repro.workloads.flashcrowd import FlashCrowdConfig, generate_flash_crowd
from repro.workloads.processes import PARETO_SHAPE, pareto_onoff_churn, poisson_churn

pytestmark = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)

HOST_POOL = [f"H_N{i}" for i in range(40)]

hosts_strategy = st.lists(
    st.sampled_from(HOST_POOL), min_size=1, max_size=12, unique=True
)


def _assert_well_formed(schedule, end=None):
    """Joins/leaves pair per host; everyone is off-group at the end."""
    on = set()
    last_time = None
    for event in schedule.events:
        assert event.action in VALID_ACTIONS
        if last_time is not None:
            assert event.time >= last_time  # sorted
        last_time = event.time
        if event.action == "join":
            assert event.host not in on, f"{event.host} double-joined"
            on.add(event.host)
        else:
            assert event.host in on, f"{event.host} left before joining"
            on.discard(event.host)
        if end is not None:
            assert event.time <= end + 1e-9
    assert not on, f"sessions left open at drain: {sorted(on)}"


@settings(max_examples=25, deadline=None)
@given(
    hosts=hosts_strategy,
    seed=st.integers(min_value=0, max_value=2**31),
    process=st.sampled_from(["poisson", "pareto"]),
    duration=st.floats(min_value=5.0, max_value=200.0),
)
def test_same_seed_identical_schedule(hosts, seed, process, duration):
    generate = poisson_churn if process == "poisson" else pareto_onoff_churn
    a = generate(hosts, duration, seed=seed)
    b = generate(hosts, duration, seed=seed)
    assert a.events == b.events


@settings(max_examples=25, deadline=None)
@given(
    hosts=hosts_strategy,
    seed=st.integers(min_value=0, max_value=2**31),
    process=st.sampled_from(["poisson", "pareto"]),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
def test_schedule_insensitive_to_host_order(hosts, seed, process, order_seed):
    generate = poisson_churn if process == "poisson" else pareto_onoff_churn
    shuffled = list(hosts)
    random.Random(order_seed).shuffle(shuffled)
    assert (
        generate(hosts, 60.0, seed=seed).events
        == generate(shuffled, 60.0, seed=seed).events
        == generate(list(reversed(hosts)), 60.0, seed=seed).events
    )


@settings(max_examples=25, deadline=None)
@given(
    hosts=hosts_strategy,
    seed=st.integers(min_value=0, max_value=2**31),
    process=st.sampled_from(["poisson", "pareto"]),
    start=st.floats(min_value=0.0, max_value=50.0),
    duration=st.floats(min_value=5.0, max_value=200.0),
)
def test_pairing_well_formed(hosts, seed, process, start, duration):
    generate = poisson_churn if process == "poisson" else pareto_onoff_churn
    schedule = generate(hosts, duration, seed=seed, start=start)
    _assert_well_formed(schedule, end=start + duration)
    for event in schedule.events:
        assert event.time >= start


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    clients=st.lists(
        st.sampled_from(HOST_POOL), min_size=1, max_size=20, unique=True
    ),
)
def test_flash_crowd_properties(seed, clients):
    config = FlashCrowdConfig(ramp=6.0, hold=9.0, seed=seed)
    crowd = generate_flash_crowd(clients, config, start=5.0)
    again = generate_flash_crowd(
        list(reversed(clients)), config, start=5.0
    )
    assert crowd.schedule.events == again.schedule.events  # order-free
    assert crowd.sessions == again.sessions
    _assert_well_formed(crowd.schedule)
    for host, (arrival, leave) in crowd.sessions.items():
        assert 5.0 <= arrival <= 5.0 + config.ramp
        assert leave == arrival + config.hold
    # The segment clock covers the whole cast at the configured cadence.
    assert crowd.segments[0] == 5.0
    assert crowd.segments[-1] <= crowd.drain_time
    assert crowd.drain_time - crowd.segments[-1] < config.segment_spacing
    gaps = {
        round(b - a, 9)
        for a, b in zip(crowd.segments, crowd.segments[1:])
    }
    assert gaps <= {round(config.segment_spacing, 9)}


def _off_gaps(schedule):
    """OFF-period durations per host: start-to-first-join and
    leave-to-next-join gaps — the draws of ``sample_off``."""
    last_leave = {}
    gaps = []
    for event in sorted(schedule.events, key=lambda e: (e.host, e.time)):
        if event.action == "join":
            gaps.append(event.time - last_leave.get(event.host, 0.0))
        else:
            last_leave[event.host] = event.time
    return gaps


def test_poisson_gaps_match_exponential_statistics():
    # Large single sample (one seed: the suite must stay deterministic;
    # per-host streams make this 400 independent renewal processes).
    schedule = poisson_churn(
        [f"H_N{i}" for i in range(400)],
        duration=200.0,
        mean_off=10.0,
        mean_hold=10.0,
        seed=11,
    )
    gaps = _off_gaps(schedule)
    assert len(gaps) > 2000
    mean = statistics.fmean(gaps)
    median = statistics.median(gaps)
    # Exponential(10): mean 10, median 10·ln2 ≈ 6.93.  Truncation at
    # the duration end biases both slightly low; 15% tolerance.
    assert mean == pytest.approx(10.0, rel=0.15)
    assert median == pytest.approx(10.0 * math.log(2), rel=0.15)


def test_pareto_gaps_share_mean_but_sit_on_lower_median():
    schedule = pareto_onoff_churn(
        [f"H_N{i}" for i in range(400)],
        duration=200.0,
        mean_off=10.0,
        mean_hold=10.0,
        seed=11,
    )
    gaps = _off_gaps(schedule)
    assert len(gaps) > 2000
    median = statistics.median(gaps)
    # Pareto(alpha=1.5) scaled to mean 10 has x_m = 10/3 and median
    # x_m · 2^(1/alpha) ≈ 5.29 — well below the exponential's 6.93.
    # The sample mean converges too slowly under an infinite-variance
    # tail to pin tightly (that burstiness is the point of the
    # process), so the median carries the discrimination.
    assert PARETO_SHAPE == 1.5
    expected_median = (10.0 / 3.0) * 2 ** (1 / PARETO_SHAPE)
    assert median == pytest.approx(expected_median, rel=0.15)
    assert median < 6.0  # clearly below exponential's 6.93
    # Heavy tail: the largest draw dwarfs the median by an order of
    # magnitude (never true of the exponential at this sample size).
    assert max(gaps) > 20 * median


def test_processes_comparable_at_equal_parameters():
    """Equal means → comparable aggregate activity, different shape."""
    hosts = [f"H_N{i}" for i in range(100)]
    poisson = poisson_churn(hosts, 300.0, mean_off=8.0, mean_hold=12.0, seed=5)
    pareto = pareto_onoff_churn(
        hosts, 300.0, mean_off=8.0, mean_hold=12.0, seed=5
    )
    # Same renewal rate at equal means: event counts within 2x.
    assert len(poisson.events) < 2 * len(pareto.events)
    assert len(pareto.events) < 2 * len(poisson.events)
