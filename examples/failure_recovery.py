#!/usr/bin/env python
"""Failure recovery and rejoin loop detection (spec §6).

Two acts:

1. **Parent failure on Figure 1** — the R3-R4 link dies; R3 detects it
   via echo timeouts, flushes the child that now sits on its rejoin
   path (§2.7), and re-attaches the whole branch through the backup
   path S8.  Data flows again.

2. **The Figure-5 rejoin loop (§6.3)** — a rejoin issued under
   transiently inconsistent routing creates a loop; the REJOIN-NACTIVE
   mechanism detects it, a QUIT breaks it, and the subtree re-homes
   along loop-free paths.

Run:  python examples/failure_recovery.py
"""

from repro import CBTDomain, build_figure1, build_figure5_loop, group_address
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_data


def act_one_parent_failure() -> None:
    print("=" * 64)
    print("ACT 1: parent failure and re-attachment (Figure 1, spec §6.1)")
    print("=" * 64)
    net = build_figure1()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
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
    print(f"tree before failure: {domain.tree_edges(group)}")

    print("\n-- failing link R3-R4 --")
    net.fail_link("L_R3_R4")
    net.run(until=45.0)
    print(f"tree after recovery: {domain.tree_edges(group)}")
    for event in net.telemetry.bus.records("protocol"):
        if event.router != "R3":
            continue
        print(f"  R3 t={event.time:6.1f}s  {event.kind}  {event.detail}")

    uid = send_data(net, "D", group, count=1)[0]
    for member in ("A", "B"):
        copies = sum(1 for d in net.host(member).delivered if d.uid == uid)
        print(f"  data check: {member} received {copies} copy(ies)")
    domain.assert_tree_consistent(group)
    print("recovered tree is consistent\n")


def act_two_rejoin_loop() -> None:
    print("=" * 64)
    print("ACT 2: rejoin loop detection (Figure 5, spec §6.3)")
    print("=" * 64)
    fig = build_figure5_loop()
    net = fig.network
    fig.isolate_chain()  # build the tree along the chain R1..R5
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["R1"])
    domain.start()
    net.run(until=3.0)
    for i, member in enumerate(["HM3", "HM4", "HM5"]):
        net.scheduler.call_at(
            3.0 + 0.1 * i,
            (lambda m: (lambda: domain.join_host(m, group)))(member),
        )
    net.run(until=8.0)
    print(f"chain tree: {domain.tree_edges(group)}")

    fig.restore_shortcuts()  # routing now prefers paths through R6
    net.run(until=10.0)
    print("\n-- failing link R2-R3: R3 must rejoin through R6 --")
    fig.fail_parent_link()
    net.run(until=200.0)

    p3 = domain.protocol("R3")
    loops = len(p3.events_of("loop_detected"))
    quits = p3.stats.sent.get("QUIT_REQUEST", 0)
    print(f"R3 detected the loop {loops} time(s), sent {quits} quit(s)")
    print(f"final tree: {domain.tree_edges(group)}")
    domain.assert_tree_consistent(group)

    uid = send_data(net, "HM5", group, count=1)[0]
    for member in ("HM3", "HM4"):
        copies = sum(1 for d in net.host(member).delivered if d.uid == uid)
        print(f"  data check: {member} received {copies} copy(ies)")
    print("loop broken, members served")


if __name__ == "__main__":
    act_one_parent_failure()
    act_two_rejoin_loop()
