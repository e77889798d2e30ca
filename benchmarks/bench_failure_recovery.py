"""E6b — failure-recovery latency vs the §9 timer defaults.

After a parent/link failure, service interruption is governed by the
keepalive machinery: detection takes up to ECHO-TIMEOUT plus one
ECHO-INTERVAL; the rejoin itself is a fast join/ack exchange.  This
bench sweeps the timer scale and confirms recovery time tracks the
timers linearly — the spec's rationale for making every value
configurable.
"""


from benchmarks.conftest import publish
from repro import CBTDomain, group_address
from repro.core.timers import CBTTimers
from repro.harness.experiment import Experiment
from repro.harness.scenarios import FAST_IGMP
from repro.topology.figures import build_figure1


def recovery_time(scale: float) -> tuple:
    """(detection time, total recovery time) after L_R3_R4 fails."""
    timers = CBTTimers().scaled(scale)
    net = build_figure1()
    domain = CBTDomain(net, timers=timers, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    net.run(until=3.0)
    for i, member in enumerate(["A", "B", "D"]):
        net.scheduler.call_at(
            3.0 + 0.05 * i,
            (lambda m: (lambda: domain.join_host(m, group)))(member),
        )
    net.run(until=8.0)
    fail_at = net.scheduler.now
    net.fail_link("L_R3_R4")
    horizon = fail_at + timers.echo_timeout + timers.echo_interval * 4 + timers.reconnect_timeout
    net.run(until=horizon)
    p3 = domain.protocol("R3")
    lost = p3.events_of("parent_lost")
    rejoined = [e for e in p3.events_of("rejoined") if e.time > fail_at]
    assert lost and rejoined, "recovery did not complete in the horizon"
    return lost[0].time - fail_at, rejoined[0].time - fail_at


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E6b",
        title="Failure recovery latency vs timer scale (Figure 1, R3-R4 cut)",
        paper_expectation=(
            "detection <= ECHO-TIMEOUT + ECHO-INTERVAL after the "
            "failure; the rejoin adds only a join/ack RTT, so total "
            "recovery scales linearly with the timer profile"
        ),
    )
    rows = []
    for scale in (0.05, 0.1, 0.2, 0.5):
        timers = CBTTimers().scaled(scale)
        detect, total = recovery_time(scale)
        bound = timers.echo_timeout + 2 * timers.echo_interval
        rows.append(
            (
                scale,
                round(timers.echo_interval, 1),
                round(timers.echo_timeout, 1),
                round(detect, 2),
                round(total, 2),
                round(bound, 2),
            )
        )
    exp.run_sweep(
        [
            "timer scale",
            "echo intvl s",
            "echo timeout s",
            "detected after s",
            "recovered after s",
            "detection bound s",
        ],
        rows,
    )
    return exp


def test_failure_recovery(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E6b_failure_recovery", exp.report())
    rows = exp.result.rows
    for scale, interval, timeout, detect, total, bound in rows:
        assert detect <= bound + 1e-6
        assert total >= detect
        # Rejoin after detection is fast (well under one echo interval).
        assert total - detect < interval
    # Linearity: recovery time scales with the timer profile.
    assert rows[-1][4] > rows[0][4] * 4
