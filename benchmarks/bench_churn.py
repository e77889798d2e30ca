"""E12 (extension) — control traffic under membership churn.

The paper's steady-state argument extended to dynamics: each CBT
membership change costs one join/ack (or quit/ack) exchange along one
path, so control traffic scales with churn *rate*, not with topology
size or group population.  DVMRP reacts to arrivals with grafts and to
silence with prune state that decays into periodic re-flooding.

This bench sweeps churn intensity on a fixed topology and reports CBT
control messages per membership event, which should stay ~constant.
"""


from benchmarks.conftest import publish
from repro.harness.experiment import Experiment
from repro.harness.scenarios import build_cbt_group, pick_members
from repro.harness.workload import apply_churn, generate_churn
from repro.topology.generators import waxman_network

TOPOLOGY_SIZE = 24
DURATION = 120.0
SEED = 9


def churn_run(mean_interval: float) -> tuple:
    net = waxman_network(TOPOLOGY_SIZE, seed=SEED)
    seeds = pick_members(net, 2, seed=SEED)
    domain, group = build_cbt_group(net, seeds, cores=["N0", "N9"])
    before = domain.control_messages_sent()
    echo_before = sum(
        p.stats.sent.get("ECHO_REQUEST", 0) + p.stats.sent.get("ECHO_REPLY", 0)
        for p in domain.protocols.values()
    )
    hosts = sorted(net.hosts)
    schedule = generate_churn(
        hosts,
        duration=DURATION,
        mean_interval=mean_interval,
        seed=SEED,
        start=net.scheduler.now,
    )
    apply_churn(net, domain, group, schedule, settle_after=20.0)
    domain.assert_tree_consistent(group)
    total = domain.control_messages_sent() - before
    echoes = (
        sum(
            p.stats.sent.get("ECHO_REQUEST", 0) + p.stats.sent.get("ECHO_REPLY", 0)
            for p in domain.protocols.values()
        )
        - echo_before
    )
    events = len(schedule.events)
    tree_building = total - echoes
    return events, total, echoes, tree_building


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E12",
        title=f"Control traffic vs churn rate (Waxman n={TOPOLOGY_SIZE}, {DURATION:.0f}s)",
        paper_expectation=(
            "tree-building control messages scale linearly with the "
            "number of membership events (constant per-event cost); "
            "keepalive background is churn-independent"
        ),
    )
    rows = []
    for mean_interval in (20.0, 10.0, 5.0, 2.0):
        events, total, echoes, tree_building = churn_run(mean_interval)
        per_event = tree_building / events if events else 0.0
        rows.append(
            (
                mean_interval,
                events,
                tree_building,
                round(per_event, 1),
                echoes,
            )
        )
    exp.run_sweep(
        [
            "mean interval s",
            "membership events",
            "tree-building msgs",
            "msgs per event",
            "keepalive msgs",
        ],
        rows,
    )
    return exp


def test_churn(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E12_churn", exp.report())
    rows = exp.result.rows
    per_event = [row[3] for row in rows]
    # Per-event cost is bounded and roughly flat across churn rates.
    assert max(per_event) < 40
    assert max(per_event) <= 3 * max(min(per_event), 1)
    # More churn -> more tree-building traffic in absolute terms.
    assert rows[-1][2] > rows[0][2]
