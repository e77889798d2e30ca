"""E21 — Four-way baseline grid: CBT vs DVMRP vs MOSPF vs HPIM-DM.

The paper's evaluation argues CBT against two alternatives: soft-state
flood-and-prune (DVMRP) and per-source link-state trees (MOSPF).  The
grid here adds the hard-state dense-mode point (HPIM-DM, arXiv
2002.06635): reliably-synchronised per-link assert elections instead
of periodic re-flooding, so its steady-state control cost is zero like
CBT's while its state stays per-(source, group) like DVMRP's.

Two tables:

* **steady state** — each live engine stood up on Figure 1 with the
  campaign membership, two senders flooding, then a 60 s window with a
  steady data trickle (flood-and-prune's re-flood tax only shows while
  data flows): state census, convergence control, and the window's
  control cost.  MOSPF has no live engine (see
  ``repro.workloads.probe``); its row is the standard model — every
  membership change floods one group-membership LSA to all routers,
  and every router computes every (source, group) tree.
* **recovery** — the `baseline-compare` cells (identical replayed
  fault schedules, see ``repro.harness.baseline_cell``) for the two
  quick CI scenarios: recovery latency, reactive control cost, and
  post-recovery delivery per live protocol.
"""

from benchmarks.conftest import publish
from repro.harness.baseline_cell import run_baseline_compare_cell
from repro.harness.campaign import TOPOLOGIES
from repro.harness.experiment import Experiment, SweepResult
from repro.harness.scenarios import (
    FAST_TIMERS,
    build_cbt_group,
    build_dvmrp_group,
    build_hpimdm_group,
    send_data,
)

STEADY_WINDOW = 60.0
TRICKLE_SPACING = 5.0
#: Short soft-state lifetime so prune decay (and the re-flood it
#: forces) happens inside the steady window, matching the recovery
#: cells' ``reconnect_timeout``-scaled convention.
DVMRP_PRUNE_LIFETIME = 20.0
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
    # Each protocol's periodic liveness messages (CBT echo keepalives,
    # HPIM-DM hellos) sit in their own column so the control columns
    # compare event-driven work only — the same accounting the
    # baseline-compare recovery cells use.
    if protocol == "cbt":
        domain, group = build_cbt_group(
            network, members, cores, timers=FAST_TIMERS
        )
        control = lambda: (  # noqa: E731
            domain.control_messages_sent() - _cbt_echoes(domain)
        )
        keepalives = lambda: _cbt_echoes(domain)  # noqa: E731
        census = lambda: (  # noqa: E731
            domain.total_fib_state(),
            len(domain.on_tree_routers(group)),
        )
    elif protocol == "dvmrp":
        domain, group = build_dvmrp_group(
            network, members, prune_lifetime=DVMRP_PRUNE_LIFETIME
        )
        control = domain.control_messages
        keepalives = lambda: 0  # noqa: E731 - flood-and-prune has none
        census = lambda: (  # noqa: E731
            domain.total_state(),
            domain.routers_with_state(),
        )
    else:
        domain, group = build_hpimdm_group(network, members)
        control = domain.control_messages
        keepalives = domain.hello_messages
        census = lambda: (  # noqa: E731
            domain.total_state(),
            domain.routers_with_state(),
        )
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
    total, holders = census()
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
        ["cbt", "dvmrp", "mospf (model)", "hpimdm"],
        steady_state_row,
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
