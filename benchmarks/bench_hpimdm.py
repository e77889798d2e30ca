"""E22 — HPIM-DM comparator: hard-state convergence and recovery.

Measures the two costs the CBT-vs-dense-mode argument turns on, as
deterministic sim-time counts:

* **convergence** — standing up the Figure-1 domain, flooding one
  source, and reaching full synchronisation: total control messages
  (asserts + interests + acks + retransmissions; hellos excluded) and
  protocol state-change events; the same on a 16-router Waxman
  topology;
* **quiescence** — the no-re-flood property as a number: control
  messages over a long settled window (must be exactly zero);
* **recovery** — a transit-LAN outage 3 s longer than the neighbour
  hold time, then restoration: the reactive control cost of tearing
  down and re-synchronising the affected elections.

Every phase asserts correctness (clean election census, nothing
unacknowledged, exactly-once delivery), and the committed table pins
every count byte for byte.
"""

from __future__ import annotations

from typing import Tuple

from benchmarks.conftest import publish
from repro.baselines.hpimdm import NEIGHBOUR_HOLD
from repro.harness.experiment import Experiment
from repro.harness.scenarios import build_hpimdm_group, judge_delivery, send_data
from repro.topology.figures import build_figure1
from repro.topology.generators import waxman_network


def _require_clean(domain, network, group, sender, uids, where: str) -> None:
    findings = domain.election_findings()
    assert not findings, f"{where}: election findings: {findings[:3]}"
    pending = domain.pending_total()
    assert not pending, f"{where}: {pending} advertisements unacknowledged"
    wrong = judge_delivery(network, group, sender, uids).findings(where)
    assert not wrong, wrong


def figure1_run() -> Tuple[int, int, int, int, int]:
    """One full Figure-1 convergence + quiescence + recovery cycle.

    Returns (convergence control msgs, convergence protocol events,
    quiescent-window control msgs, recovery control msgs, total sim
    events processed) — all deterministic counts.
    """
    network = build_figure1()
    members = ["A", "G", "H"]
    domain, group = build_hpimdm_group(network, members)

    uids = send_data(network, "B", group, count=3, spacing=0.05)
    network.run(until=network.scheduler.now + 12.0)
    _require_clean(domain, network, group, "B", uids, "convergence")
    converge_control = domain.control_messages()
    converge_events = domain.events_total()

    # The no-re-flood property, measured: a long settled window must
    # cost zero hard-state control messages.
    network.run(until=network.scheduler.now + 60.0)
    quiescent_control = domain.control_messages() - converge_control

    # Recovery: S2 (R1/R2/R3) outage past the hold time, so its
    # neighbours expire, then return.
    recovery_start = domain.control_messages()
    network.fail_link("S2")
    network.run(until=network.scheduler.now + NEIGHBOUR_HOLD + 3.0)
    network.restore_link("S2")
    network.run(until=network.scheduler.now + 15.0)
    probe = send_data(network, "B", group, count=2, spacing=0.05)
    network.run(until=network.scheduler.now + 12.0)
    _require_clean(domain, network, group, "B", probe, "recovery")
    recovery_control = domain.control_messages() - recovery_start

    return (
        converge_control,
        converge_events,
        quiescent_control,
        recovery_control,
        network.scheduler.events_processed,
    )


def waxman_run(size: int = 16, seed: int = 7) -> Tuple[int, int]:
    """Convergence on a random topology: (control msgs, sim events)."""
    from repro.harness.scenarios import pick_members

    network = waxman_network(size, seed=seed)
    members = pick_members(network, 4, seed=seed)
    domain, group = build_hpimdm_group(network, members)
    sender = pick_members(network, 1, seed=seed + 1)[0]
    uids = send_data(network, sender, group, count=2, spacing=0.05)
    network.run(until=network.scheduler.now + 20.0)
    _require_clean(domain, network, group, sender, uids, f"waxman{size}")
    return domain.control_messages(), network.scheduler.events_processed


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E22",
        title="HPIM-DM hard-state convergence, quiescence and recovery",
        paper_expectation=(
            "a hard-state dense-mode protocol converges once and then "
            "stays silent: zero control messages in a settled window, "
            "and a reactive, bounded cost to re-synchronise after an "
            "outage"
        ),
    )
    converge, events, quiet, recovery, sim_events = figure1_run()
    control, wax_events = waxman_run()
    exp.run_sweep(
        [
            "topology",
            "conv ctl msgs",
            "conv events",
            "quiet ctl msgs",
            "recovery ctl msgs",
            "sim events",
        ],
        [
            ("figure1", converge, events, quiet, recovery, sim_events),
            ("waxman16", control, "-", "-", "-", wax_events),
        ],
    )
    return exp


def test_hpimdm(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E22_hpimdm", exp.report())
    quiet = exp.result.column("quiet ctl msgs")[0]
    assert quiet == 0, "a settled window sent control: the no-re-flood property broke"
