"""E21 — Four-way baseline grid: CBT vs DVMRP vs MOSPF vs HPIM-DM.

The paper's evaluation argues CBT against two alternatives: soft-state
flood-and-prune (DVMRP) and per-source link-state trees (MOSPF).  The
grid here adds the hard-state dense-mode point (HPIM-DM, arXiv
2002.06635): reliably-synchronised per-link assert elections instead
of periodic re-flooding, so its steady-state control cost is zero like
CBT's while its state stays per-(source, group) like DVMRP's.

Two tables:

* **steady state** — each live engine stood up on Figure 1 through its
  ``campaign.LEGS`` row (the cells' timers, the row's census) with the
  campaign membership, two senders flooding, then a 60 s window with a
  steady data trickle (flood-and-prune's re-flood tax only shows while
  data flows): state census, convergence control, the window's
  control cost and its keepalives.  MOSPF has no live engine (see
  ``repro.workloads.probe``); its row is the standard model — every
  membership change floods one group-membership LSA to all routers,
  and every router computes every (source, group) tree.
* **recovery** — the `baseline-compare` cells (identical replayed
  fault schedules, see ``repro.harness.baseline_cell``) for the two
  quick CI scenarios: recovery latency, reactive control cost, and
  post-recovery delivery per live protocol.  The reactive cost is each
  row's ``control`` count: CBT's skips only HELLOs, so its ECHO
  keepalives are in it; DVMRP's and HPIM-DM's skip their probes and
  hellos.
"""

from benchmarks.conftest import publish
from repro.harness.baseline_cell import run_baseline_compare_cell
from repro.harness.campaign import LEGS, TOPOLOGIES
from repro.harness.experiment import Experiment, SweepResult
from repro.harness.scenarios import send_data

STEADY_WINDOW = 60.0
TRICKLE_SPACING = 5.0
SENDERS = 2
PACKETS = 2


def _cbt_echoes(domain) -> int:
    return sum(
        p.stats.sent.get("ECHO_REQUEST", 0) + p.stats.sent.get("ECHO_REPLY", 0)
        for p in domain.protocols.values()
    )


def steady_state_row(protocol: str) -> tuple:
    network, members, cores = TOPOLOGIES["figure1"].build(0)
    n_routers = len(network.routers)
    if protocol == "mospf (model)":
        # One group-membership LSA flooded domain-wide per membership
        # change; every router computes every (S, G) shortest-path
        # tree.  Nothing is event-driven inside a settled window.
        converge = len(members) * n_routers
        return (
            protocol,
            n_routers * SENDERS,
            f"{n_routers}/{n_routers}",
            converge,
            0,
            "-",
        )
    # Each protocol's periodic liveness messages (CBT echoes, DVMRP
    # probes, HPIM-DM hellos) sit in their own column so the control
    # columns compare event-driven work only.  The CBT row's ``control``
    # counts its echoes (it skips only HELLOs), so they come out here.
    leg = LEGS[protocol]
    domain, group = leg.build(network, members, cores)
    if protocol == "cbt":
        keepalives = lambda: _cbt_echoes(domain)  # noqa: E731
        control = lambda: leg.control(domain) - keepalives()  # noqa: E731
    else:
        keepalives = domain.beacons_sent
        control = lambda: leg.control(domain)  # noqa: E731
    for sender in members[:SENDERS]:
        send_data(network, sender, group, count=PACKETS, spacing=0.05)
        network.run(until=network.scheduler.now + 12.0)
    converged = control()
    keepalive_base = keepalives()
    # Steady window under a data trickle: CBT and HPIM-DM forward it
    # on standing state for free; DVMRP's prunes decay and force
    # periodic domain-wide re-floods (and fresh prunes).
    for _ in range(int(STEADY_WINDOW / TRICKLE_SPACING)):
        send_data(network, members[0], group, count=1)
        network.run(until=network.scheduler.now + TRICKLE_SPACING)
    total, holders = leg.census(domain, group)
    return (
        protocol,
        total,
        f"{holders}/{n_routers}",
        converged,
        control() - converged,
        keepalives() - keepalive_base,
    )


def recovery_rows(scenario: str) -> list:
    result = run_baseline_compare_cell(scenario, "figure1", seed=0)
    assert result.clean, result.findings()
    return [
        (
            scenario,
            outcome.protocol,
            round(outcome.recovery_time, 2),
            outcome.control_cost,
            outcome.state_total,
            f"{outcome.delivery_after:.2f}",
        )
        for outcome in result.outcomes
    ]


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E21",
        title=(
            "Baseline grid on Figure 1: CBT vs DVMRP vs MOSPF vs "
            "HPIM-DM (state / overhead / recovery)"
        ),
        paper_expectation=(
            "CBT: one shared tree, state on tree routers only, zero "
            "steady-state control. DVMRP: per-(S,G) state everywhere "
            "plus a periodic re-flood tax. MOSPF (modeled): LSA flood "
            "per membership change, every router computes every tree. "
            "HPIM-DM: per-(S,G) hard state, but elections are "
            "synchronised once — steady-state control is zero"
        ),
    )
    exp.run_sweep(
        [
            "protocol",
            "state entries",
            "routers w/ state",
            "converge ctl msgs",
            f"tree ctl / {STEADY_WINDOW:.0f}s steady",
            f"keepalives / {STEADY_WINDOW:.0f}s",
        ],
        [
            steady_state_row(protocol)
            for protocol in ["cbt", "dvmrp", "mospf (model)", "hpimdm"]
        ],
    )
    recovery = SweepResult(
        headers=[
            "scenario",
            "protocol",
            "recovery s",
            "reactive ctl msgs",
            "state after",
            "delivery after",
        ]
    )
    for scenario in ("link_flap", "router_crash"):
        for row in recovery_rows(scenario):
            recovery.add(*row)
    report = (
        exp.report()
        + "\n\n"
        + recovery.render(
            title=(
                "recovery under identical replayed fault schedules "
                "(baseline-compare cells, seed 0)"
            )
        )
    )
    publish("E21_baseline_grid", report)
    return exp


def test_baseline_grid(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = {row[0]: row for row in exp.result.rows}
    # CBT's state lives only on tree routers; DVMRP/HPIM-DM put
    # per-source entries in (nearly) every router; MOSPF in all.
    assert rows["cbt"][1] < rows["dvmrp"][1]
    assert rows["cbt"][1] < rows["hpimdm"][1]
    # Soft state pays the periodic re-flood tax; hard state and CBT
    # are silent once converged (keepalives aside).
    assert rows["dvmrp"][4] > 0
    assert rows["cbt"][4] == 0
    assert rows["hpimdm"][4] == 0
    assert rows["mospf (model)"][4] == 0
    # The liveness cost both tree protocols do pay, visibly.
    assert rows["cbt"][5] > 0
    assert rows["hpimdm"][5] > 0
